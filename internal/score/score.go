// Package score computes the benchmark's six performance metrics (§3.2)
// for generated answers — BLEU, edit distance, exact match (text
// level); key-value exact and key-value wildcard match (YAML-aware);
// unit test (function level) — and aggregates them into the Table 4
// model ranking.
package score

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"cloudeval/internal/dataset"
	"cloudeval/internal/llm"
	"cloudeval/internal/stage"
	"cloudeval/internal/textmetrics"
	"cloudeval/internal/unittest"
	"cloudeval/internal/yamlmatch"
)

// ProblemScore is one (model, problem) evaluation.
type ProblemScore struct {
	ProblemID string
	Model     string
	Variant   dataset.Variant

	// Answer is the post-processed YAML extracted from the response.
	Answer string

	BLEU       float64
	EditDist   float64
	ExactMatch float64
	KVExact    float64
	KVWildcard float64
	UnitTest   float64
}

// Metrics lists the six metric names in presentation order.
var Metrics = []string{"bleu", "edit_distance", "exact_match", "kv_exact", "kv_wildcard", "unit_test"}

// Metric extracts a named metric value.
func (s ProblemScore) Metric(name string) float64 {
	switch name {
	case "bleu":
		return s.BLEU
	case "edit_distance":
		return s.EditDist
	case "exact_match":
		return s.ExactMatch
	case "kv_exact":
		return s.KVExact
	case "kv_wildcard":
		return s.KVWildcard
	case "unit_test":
		return s.UnitTest
	}
	return 0
}

// refContext holds a reference compiled for scoring: everything the
// five text-level and YAML-aware metrics need that depends on the
// reference alone — the label-stripped text, its BLEU n-gram tables,
// its lines with difflib's index, its parsed documents and its
// labeled leaves by path. A twelve-model campaign scores each
// reference twelve times, and before this was compiled once those five
// metrics were half of a warm campaign's time. A problem keeps its own
// (see dataset.Memo), and its variants share it.
type refContext struct {
	bleu  *textmetrics.BLEURef
	lines *textmetrics.LineRef
	kv    *yamlmatch.Ref
}

func refFor(p dataset.Problem) *refContext {
	return dataset.Memo(p, dataset.Reference, compileRef)
}

func compileRef(p dataset.Problem) *refContext {
	kv := yamlmatch.NewRef(p.ReferenceYAML)
	return &refContext{
		bleu:  textmetrics.NewBLEURef(kv.Clean),
		lines: textmetrics.NewLineRef(kv.Clean),
		kv:    kv,
	}
}

// textScores are the five metrics that depend on the reference and the
// answer text alone.
type textScores struct {
	bleu, editDist, exactMatch, kvExact, kvWildcard float64
}

func (r *refContext) score(answer string) textScores {
	var t textScores
	stage.Set(stage.BLEU)
	t.bleu = r.bleu.Score(answer)
	stage.Set(stage.EditDist)
	t.editDist = r.lines.EditDistanceScore(answer)
	stage.Set(stage.Exact)
	t.exactMatch = r.lines.ExactMatch(answer)
	t.kvExact, t.kvWildcard = r.kv.Score(answer) // stage.KV
	stage.Set(stage.Score)
	return t
}

// textMemo holds the text scores of one campaign call of an Evaluator
// (Model, Benchmark) by (compiled reference, answer). The three variants
// of a problem share a reference and often an answer, and weak models
// converge on the same wrong ones: of Table 4's 13,195 scorings 5,759
// are distinct. The key is the reference's identity and the whole
// answer, so two keys are equal only when the scores are. It lives and
// dies with the call that made it: nothing outlives a campaign, and
// Score, which serves callers' own text, keeps nothing.
type textMemo struct {
	mu sync.Mutex
	m  map[textKey]textScores
}

type textKey struct {
	ref    *refContext
	answer string
}

// newTextMemo sizes the map for a call of ops scorings, of which about
// half are expected to be distinct.
func newTextMemo(ops int) *textMemo {
	return &textMemo{m: make(map[textKey]textScores, ops/2)}
}

// score returns ref.score(answer), computed at most once per key
// unless two workers meet on a new one: then both compute, outside the
// lock, and store equal values.
func (tm *textMemo) score(ref *refContext, answer string) textScores {
	k := textKey{ref, answer}
	tm.mu.Lock()
	t, ok := tm.m[k]
	tm.mu.Unlock()
	if ok {
		return t
	}
	t = ref.score(answer)
	tm.mu.Lock()
	tm.m[k] = t
	tm.mu.Unlock()
	return t
}

// scoreAnswerSerial is the pre-engine path: the unit test runs directly
// on the calling goroutine with no cache. Kept as the baseline the
// engine is benchmarked and determinism-tested against.
func scoreAnswerSerial(p dataset.Problem, answer string) ProblemScore {
	cleanRef := yamlmatch.StripLabels(p.ReferenceYAML)
	s := ProblemScore{
		ProblemID:  p.ID,
		Variant:    p.Variant,
		Answer:     answer,
		BLEU:       textmetrics.BLEU(answer, cleanRef),
		EditDist:   textmetrics.EditDistanceScore(answer, cleanRef),
		ExactMatch: textmetrics.ExactMatch(answer, cleanRef),
		KVExact:    yamlmatch.KVExactMatch(answer, cleanRef),
		KVWildcard: yamlmatch.KVWildcardMatch(answer, p.ReferenceYAML),
	}
	s.UnitTest = unittest.Run(p, answer).Score()
	return s
}

// evalProblems lists the indices of the problems a model answers
// (English-only APIs skip translated questions).
func evalProblems(m llm.Model, problems []dataset.Problem) []int {
	kept := make([]int, 0, len(problems))
	for i, p := range problems {
		if m.EnglishOnly && p.Variant == dataset.Translated {
			continue
		}
		kept = append(kept, i)
	}
	return kept
}

// EvaluateModelSerial is the pre-engine loop: one problem at a time on
// the calling goroutine, no cache. The baseline for
// BenchmarkZeroShotEngine and the determinism tests.
func EvaluateModelSerial(m llm.Model, problems []dataset.Problem, opts llm.GenOptions) []ProblemScore {
	kept := evalProblems(m, problems)
	out := make([]ProblemScore, 0, len(kept))
	for _, i := range kept {
		p := problems[i]
		answer := llm.Postprocess(m.Generate(p, opts))
		s := scoreAnswerSerial(p, answer)
		s.Model = m.Name
		out = append(out, s)
	}
	return out
}

// ModelAggregate is one Table 4 row.
type ModelAggregate struct {
	Model      string
	Size       string
	OpenSource bool
	Count      int

	BLEU       float64
	EditDist   float64
	ExactMatch float64
	KVExact    float64
	KVWildcard float64
	UnitTest   float64
}

// Aggregate averages per-problem scores into a model row.
func Aggregate(m llm.Model, scores []ProblemScore) ModelAggregate {
	agg := ModelAggregate{Model: m.Name, Size: m.Size, OpenSource: m.OpenSource, Count: len(scores)}
	if len(scores) == 0 {
		return agg
	}
	for _, s := range scores {
		agg.BLEU += s.BLEU
		agg.EditDist += s.EditDist
		agg.ExactMatch += s.ExactMatch
		agg.KVExact += s.KVExact
		agg.KVWildcard += s.KVWildcard
		agg.UnitTest += s.UnitTest
	}
	n := float64(len(scores))
	agg.BLEU /= n
	agg.EditDist /= n
	agg.ExactMatch /= n
	agg.KVExact /= n
	agg.KVWildcard /= n
	agg.UnitTest /= n
	return agg
}

// BenchmarkSerial is the pre-engine campaign loop: models evaluated one
// after another, each problem sequentially, no cache. Kept as the
// baseline for the engine's determinism and speedup claims.
func BenchmarkSerial(models []llm.Model, problems []dataset.Problem) ([]ModelAggregate, map[string][]ProblemScore) {
	perModel := make([][]ProblemScore, len(models))
	for mi, m := range models {
		perModel[mi] = EvaluateModelSerial(m, problems, llm.GenOptions{})
	}
	return rank(models, perModel)
}

// rank aggregates each model's scores into its Table 4 row and sorts
// the rows by unit-test score; raw maps model names to the scores.
func rank(models []llm.Model, perModel [][]ProblemScore) ([]ModelAggregate, map[string][]ProblemScore) {
	rows := make([]ModelAggregate, 0, len(models))
	raw := make(map[string][]ProblemScore, len(models))
	for mi, m := range models {
		raw[m.Name] = perModel[mi]
		rows = append(rows, Aggregate(m, perModel[mi]))
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].UnitTest > rows[j].UnitTest })
	return rows, raw
}

// FormatTable4 renders rows in the paper's Table 4 layout.
func FormatTable4(rows []ModelAggregate) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %-24s %-5s %-5s %8s %8s %8s %9s %9s %9s\n",
		"Rank", "Model", "Size", "Open", "BLEU", "EditDist", "Exact", "KV-Exact", "KV-Wild", "UnitTest")
	for i, r := range rows {
		open := "N"
		if r.OpenSource {
			open = "Y"
		}
		fmt.Fprintf(&b, "%-4d %-24s %-5s %-5s %8.3f %8.3f %8.3f %9.3f %9.3f %9.3f\n",
			i+1, r.Model, r.Size, open, r.BLEU, r.EditDist, r.ExactMatch, r.KVExact, r.KVWildcard, r.UnitTest)
	}
	return b.String()
}
