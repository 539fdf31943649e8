// Package dataset defines the CloudEval-YAML problem corpus: hand-
// written seed problems spanning Kubernetes (pod, daemonset, service,
// job, deployment, others), Envoy and Istio, expanded deterministically
// into the 337 original problems whose category counts match Table 2 of
// the paper, plus the Docker Compose and Helm extension families of the
// scenario-backend registry. Practical augmentation (simplified and
// translated variants) lives in the augment package and triples the
// corpus.
//
// Every problem carries a natural-language question, an optional YAML
// context, a labeled reference YAML and a bash unit test. The corpus
// invariant — enforced by tests — is that the reference answer passes
// its own unit test in the simulated cluster.
package dataset

import (
	"fmt"
	"sort"

	"cloudeval/internal/textmetrics"
)

// Category is a problem's application family.
type Category string

// Categories. Kubernetes, Envoy and Istio are the source paper's
// families; Compose and Helm are the extension families that prove the
// scenario-backend abstraction (internal/scenario) end to end.
const (
	Kubernetes Category = "kubernetes"
	Envoy      Category = "envoy"
	Istio      Category = "istio"
	Compose    Category = "compose"
	Helm       Category = "helm"
)

// Variant distinguishes original questions from practical augmentation.
type Variant string

// Variants.
const (
	Original   Variant = "original"
	Simplified Variant = "simplified"
	Translated Variant = "translated"
)

// Problem is one benchmark entry.
type Problem struct {
	ID          string
	Category    Category
	Subcategory string // pod, daemonset, service, job, deployment, others; envoy/istio use their category name
	Variant     Variant

	// Question is the natural-language task description.
	Question string
	// ContextYAML is the optional YAML snippet shown with the question.
	ContextYAML string
	// ReferenceYAML is the labeled reference answer (may contain "# *"
	// and "# v in [...]" match labels).
	ReferenceYAML string
	// UnitTest is the bash script that validates functional correctness;
	// it reads the candidate answer from labeled_code.yaml and prints
	// unit_test_passed on success.
	UnitTest string
	// Source records provenance (documentation page, StackOverflow,
	// blog), mirroring the paper's collection guidelines.
	Source string

	c *compiled // shared by copies; see Memo
}

// HasContext reports whether the problem ships a YAML context.
func (p Problem) HasContext() bool { return p.ContextYAML != "" }

// SolutionLines counts non-empty lines of the reference YAML.
func (p Problem) SolutionLines() int {
	return Memo(p, solutionLines, func(p Problem) int { return nonBlankLines(p.ReferenceYAML) })
}

func nonBlankLines(s string) int {
	n := 0
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '\n' {
			if lineNotBlank(s[start:i]) {
				n++
			}
			start = i + 1
		}
	}
	return n
}

func lineNotBlank(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != ' ' && s[i] != '\t' && s[i] != '\r' {
			return true
		}
	}
	return false
}

// QuestionWords counts words in the question plus context.
func (p Problem) QuestionWords() int {
	return textmetrics.Words(p.Question) + textmetrics.Words(p.ContextYAML)
}

// QuestionTokens estimates tokenizer tokens of the full prompt body.
func (p Problem) QuestionTokens() int {
	return textmetrics.EstimateTokens(p.Question + "\n" + p.ContextYAML)
}

// SolutionTokens estimates tokens of the reference answer.
func (p Problem) SolutionTokens() int {
	return textmetrics.EstimateTokens(p.ReferenceYAML)
}

// UnitTestLines counts non-empty unit test lines.
func (p Problem) UnitTestLines() int { return nonBlankLines(p.UnitTest) }

// subcategoryCounts pins the Table 2 distribution of the 337 original
// problems.
var subcategoryCounts = []struct {
	cat   Category
	sub   string
	count int
}{
	{Kubernetes, "pod", 48},
	{Kubernetes, "daemonset", 55},
	{Kubernetes, "service", 20},
	{Kubernetes, "job", 19},
	{Kubernetes, "deployment", 19},
	{Kubernetes, "others", 122},
	{Envoy, "envoy", 41},
	{Istio, "istio", 13},
	{Compose, "compose", 24},
	{Helm, "helm", 16},
}

// TotalPaper is the number of paper originals (Table 2's 337 problems
// across the Kubernetes, Envoy and Istio families).
const TotalPaper = 337

// TotalOriginal is the number of original problems across every
// family, derived from subcategoryCounts so the distribution table
// stays the single source of truth as families are added.
var TotalOriginal = func() int {
	n := 0
	for _, sc := range subcategoryCounts {
		n += sc.count
	}
	return n
}()

// generate materializes the original corpus with no compiled state.
// Generation is deterministic, and the paper problems keep their IDs
// and order as families are appended.
func generate() []Problem {
	var out []Problem
	for _, sc := range subcategoryCounts {
		seeds := seedsFor(sc.cat, sc.sub)
		if len(seeds) == 0 {
			panic(fmt.Sprintf("dataset: no seeds for %s/%s", sc.cat, sc.sub))
		}
		for i := 0; i < sc.count; i++ {
			seed := seeds[i%len(seeds)]
			p := seed(i)
			p.ID = fmt.Sprintf("%s-%s-%03d", shortCat(sc.cat), sc.sub, i+1)
			p.Category = sc.cat
			p.Subcategory = sc.sub
			p.Variant = Original
			out = append(out, p)
		}
	}
	return out
}

func shortCat(c Category) string {
	switch c {
	case Kubernetes:
		return "k8s"
	case Envoy:
		return "envoy"
	case Istio:
		return "istio"
	}
	return string(c)
}

// seedFunc builds the i-th parameterization of a seed template.
type seedFunc func(i int) Problem

func seedsFor(cat Category, sub string) []seedFunc {
	switch {
	case cat == Envoy:
		return envoySeeds
	case cat == Istio:
		return istioSeeds
	case cat == Compose:
		return composeSeeds
	case cat == Helm:
		return helmSeeds
	}
	switch sub {
	case "pod":
		return podSeeds
	case "daemonset":
		return daemonSetSeeds
	case "service":
		return serviceSeeds
	case "job":
		return jobSeeds
	case "deployment":
		return deploymentSeeds
	case "others":
		return othersSeeds
	}
	return nil
}

// Shared vocabulary for deterministic parameterization. Every list is
// indexed modulo its length by the problem index, so regenerating the
// corpus always yields identical problems.
var (
	vocabNames  = []string{"web", "api", "cache", "frontend", "backend", "worker", "gateway", "metrics", "logger", "ingest", "search", "auth", "billing", "queue", "notifier", "scheduler"}
	vocabImages = []string{"nginx:latest", "nginx:1.25", "httpd:2.4", "redis:7", "node:20-alpine", "python:3.11-slim", "golang:1.21-alpine", "memcached:1.6"}
	vocabPorts  = []int{80, 8080, 3000, 5000, 9090, 8000, 7070, 6379}
	vocabCPU    = []string{"100m", "250m", "500m", "200m"}
	vocabMem    = []string{"64Mi", "128Mi", "256Mi", "50Mi"}
	vocabNS     = []string{"default", "staging", "production", "monitoring"}
)

func pick[T any](list []T, i int) T { return list[i%len(list)] }

// SortByID orders problems deterministically for presentation.
func SortByID(ps []Problem) {
	sort.Slice(ps, func(i, j int) bool { return ps[i].ID < ps[j].ID })
}
