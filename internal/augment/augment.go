// Package augment implements the practical data augmentation of §2.2:
// question simplification (concise phrasing with domain abbreviations)
// and translation into the developer-flavored Chinese the paper's
// Appendix D prompts produce. The paper drove both with GPT-4 plus
// manual review; this package substitutes deterministic rule-based
// rewriting so the corpus statistics (Table 1) and the harder-input
// distributions (Table 5) are reproducible.
package augment

import (
	"fmt"
	"strings"

	"cloudeval/internal/dataset"
	"cloudeval/internal/textmetrics"
)

// abbreviations maps verbose phrases to the shorthand cloud operators
// actually type. Longest phrases substitute first.
var abbreviations = []struct{ from, to string }{
	{"Kubernetes ", "k8s "},
	{"kubernetes ", "k8s "},
	{"configuration", "config"},
	{"deployment", "deploy"},
	{"Deployment", "Deploy"},
	{"environment variable", "env var"},
	{"environment variables", "env vars"},
	{"namespace", "ns"},
	{"load balancer", "LB"},
	{"load balanced", "LB'd"},
	{"load balancing", "LB"},
	{"service", "svc"},
	{"Service", "Svc"},
	{"container port", "port"},
	{"memory", "mem"},
	{"replicas", "reps"},
	{"application", "app"},
	{"manifest", "yaml"},
	{"resource limits", "limits"},
	{"strategy", "strat"},
}

// fillerPhrases are dropped entirely during simplification.
var fillerPhrases = []string{
	"Please ", "please ",
	"I need ", "I recall there was ", "I'm working with ",
	"Ensure that ", "Make sure that ", "Make sure ",
	"Provide the complete YAML.", "Provide me the exact configuration for that.",
	"provide me the entire YAML.", "Provide the entire YAML.",
	"Write a YAML file to ", "Write a yaml file to ",
	"Our CI needs ", "We roll ",
	"so our selectors find it", "so our cost reports can group workloads by owner",
	"Use the v1 API and keep the configuration minimal.",
	"The manifest must set metadata.namespace explicitly.",
	" that", " which", " should", " must",
	"Craft a yaml file to ",
	"Using the deployment below as context, ",
	"Given the following YAML, ",
}

// Simplify rewrites a question concisely, using abbreviations, without
// touching fenced or indented YAML content.
func Simplify(question string) string {
	out := question
	for _, f := range fillerPhrases {
		out = strings.ReplaceAll(out, f, " ")
	}
	for _, ab := range abbreviations {
		out = strings.ReplaceAll(out, ab.from, ab.to)
	}
	// Collapse runs of blanks introduced by phrase removal.
	out = strings.Join(strings.Fields(out), " ")
	// Terse imperative opener.
	out = strings.TrimPrefix(out, "write ")
	out = strings.TrimPrefix(out, "Write ")
	if out != "" && out[0] >= 'a' && out[0] <= 'z' {
		out = strings.ToUpper(out[:1]) + out[1:]
	}
	return out
}

// glossary drives EN→ZH translation. Technical identifiers (YAML, image
// names, field names) deliberately stay in English, matching how the
// paper's translated questions read.
var glossary = []struct{ from, to string }{
	{"Write a YAML file to create", "写一个 YAML 来创建"},
	{"Write a yaml file to create", "写一个 YAML 来创建"},
	{"Create a", "创建一个"},
	{"Create an", "创建一个"},
	{"Write a", "写一个"},
	{"Define a", "定义一个"},
	{"Provide a", "提供一个"},
	{"please help me create", "请帮我创建"},
	{"Please provide me the exact configuration for that", "请为此提供确切的配置"},
	{"Please ", "请"},
	{"named", "名为"},
	{"name the pod", "Pod 命名为"},
	{"with the name", "名称为"},
	{"that runs the", "运行"},
	{"running", "运行"},
	{"uses the", "使用"},
	{"using image", "使用镜像"},
	{"using the", "使用"},
	{"image", "镜像"},
	{"exposed on port", "暴露在端口"},
	{"expose container port", "暴露容器端口"},
	{"on port", "在端口"},
	{"port", "端口"},
	{"label", "标签"},
	{"labels", "标签"},
	{"labeled", "标签为"},
	{"environment variables", "环境变量"},
	{"environment variable", "环境变量"},
	{"namespace", "命名空间"},
	{"load balancer", "负载均衡器"},
	{"load balanced", "负载均衡"},
	{"service", "服务"},
	{"replicas", "副本"},
	{"memory", "内存"},
	{"set to", "设置为"},
	{"should be", "应为"},
	{"must", "必须"},
	{"and", "和"},
	{"with", "带有"},
	{"the", ""},
	{"The", ""},
	{"It should be accessible via browser", "它应该可以通过浏览器访问"},
	{"so that other workloads can reach it", "以便其他工作负载可以访问它"},
	{"Given the following YAML", "给定以下 YAML"},
	{"Our", "我们的"},
	{"already exists", "已经存在"},
	{"Ensure", "确保"},
	{"that", ""},
}

// Translate renders a question in developer-flavored Chinese, keeping
// technical tokens in English.
func Translate(question string) string {
	out := question
	for _, g := range glossary {
		out = strings.ReplaceAll(out, g.from, g.to)
	}
	out = strings.Join(strings.Fields(out), " ")
	return out
}

// Augment produces the simplified and translated variants of a problem.
// The reference YAML, context and unit test are shared with the
// original, as in the paper, and so is the state compiled from them; a
// corpus problem rewrites its question once per process (see
// dataset.Problem.Derive).
func Augment(p dataset.Problem) (simplified, translated dataset.Problem) {
	return variant(p, dataset.Simplified, "-s", Simplify), variant(p, dataset.Translated, "-t", Translate)
}

func variant(p dataset.Problem, v dataset.Variant, suffix string, rewrite func(string) string) dataset.Problem {
	return p.Derive(v, func(q dataset.Problem) dataset.Problem {
		q.ID += suffix
		q.Variant = v
		q.Question = rewrite(q.Question)
		return q
	})
}

// ExpandCorpus triples the original problems into the full dataset:
// original + simplified + translated, for every workload family.
func ExpandCorpus(originals []dataset.Problem) []dataset.Problem {
	out := make([]dataset.Problem, 0, len(originals)*3)
	for _, p := range originals {
		s, tr := Augment(p)
		out = append(out, p, s, tr)
	}
	return out
}

// VariantStats reports Table 1's corpus statistics for one variant.
type VariantStats struct {
	Count     int
	AvgWords  float64
	AvgTokens float64
}

// ComputeVariantStats aggregates question words/tokens for a subset.
func ComputeVariantStats(ps []dataset.Problem) VariantStats {
	s := VariantStats{Count: len(ps)}
	if len(ps) == 0 {
		return s
	}
	var words, toks int
	for _, p := range ps {
		words += textmetrics.Words(p.Question) + textmetrics.Words(p.ContextYAML)
		toks += p.QuestionTokens()
	}
	s.AvgWords = float64(words) / float64(len(ps))
	s.AvgTokens = float64(toks) / float64(len(ps))
	return s
}

// Table1 computes the augmentation statistics for the full corpus.
func Table1(all []dataset.Problem) map[dataset.Variant]VariantStats {
	byVariant := map[dataset.Variant][]dataset.Problem{}
	for _, p := range all {
		byVariant[p.Variant] = append(byVariant[p.Variant], p)
	}
	out := map[dataset.Variant]VariantStats{}
	for v, ps := range byVariant {
		out[v] = ComputeVariantStats(ps)
	}
	return out
}

// FormatTable1 renders Table 1.
func FormatTable1(all []dataset.Problem) string {
	stats := Table1(all)
	o, s, tr := stats[dataset.Original], stats[dataset.Simplified], stats[dataset.Translated]
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %10s %14s %12s\n", "", "Original", "Simplified", "Translated")
	fmt.Fprintf(&b, "%-12s %10d %14d %12d\n", "Count", o.Count, s.Count, tr.Count)
	fmt.Fprintf(&b, "%-12s %10.2f %8.2f (%+.1f%%) %12.2f\n", "Avg. words", o.AvgWords, s.AvgWords, pct(s.AvgWords, o.AvgWords), tr.AvgWords)
	fmt.Fprintf(&b, "%-12s %10.1f %8.1f (%+.1f%%) %12.1f\n", "Avg. tokens", o.AvgTokens, s.AvgTokens, pct(s.AvgTokens, o.AvgTokens), tr.AvgTokens)
	return b.String()
}

func pct(new, old float64) float64 {
	if old == 0 {
		return 0
	}
	return (new - old) / old * 100
}
