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
	"cloudeval/internal/engine"
	"cloudeval/internal/inference"
	"cloudeval/internal/llm"
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

// KVWildcard is the KV-wildcard score of answer against p's labeled
// reference, on the same compiled reference ScoreAnswerWith uses.
func KVWildcard(p dataset.Problem, answer string) float64 {
	return refFor(p).kv.KVWildcard(answer)
}

// textScores are the five metrics that depend on the reference and the
// answer text alone.
type textScores struct {
	bleu, editDist, exactMatch, kvExact, kvWildcard float64
}

func (r *refContext) score(answer string) textScores {
	t := textScores{
		bleu:       r.bleu.Score(answer),
		editDist:   r.lines.EditDistanceScore(answer),
		exactMatch: r.lines.ExactMatch(answer),
	}
	t.kvExact, t.kvWildcard = r.kv.Score(answer)
	return t
}

// textMemo holds the text scores of one EvaluateModelVia or
// BenchmarkVia call by (compiled reference, answer). The three variants
// of a problem share a reference and often an answer, and weak models
// converge on the same wrong ones: of Table 4's 13,195 scorings 5,759
// are distinct. The key is the reference's identity and the whole
// answer, so two keys are equal only when the scores are. It lives and
// dies with the call that made it: nothing outlives a campaign, and
// ScoreAnswerWith, which serves callers' own text, keeps nothing.
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

// ScoreAnswerWith computes all six metrics, submitting the unit test —
// the function-level metric that needs a simulated cluster — through
// eng. The five text-level and YAML-aware metrics run inline on the
// problem's compiled reference; the two-string functions they equal
// bit for bit stay in scoreAnswerSerial, the oracle.
func ScoreAnswerWith(eng *engine.Engine, p dataset.Problem, answer string) ProblemScore {
	return problemScore(eng, p, answer, refFor(p).score(answer))
}

// scoreAnswerMemo is ScoreAnswerWith for a campaign: the text scores
// come from tm. The unit test still goes through eng for every op,
// which has its own cache and whose Stats count every submission.
func scoreAnswerMemo(eng *engine.Engine, tm *textMemo, p dataset.Problem, answer string) ProblemScore {
	return problemScore(eng, p, answer, tm.score(refFor(p), answer))
}

func problemScore(eng *engine.Engine, p dataset.Problem, answer string, t textScores) ProblemScore {
	return ProblemScore{
		ProblemID:  p.ID,
		Variant:    p.Variant,
		Answer:     answer,
		BLEU:       t.bleu,
		EditDist:   t.editDist,
		ExactMatch: t.exactMatch,
		KVExact:    t.kvExact,
		KVWildcard: t.kvWildcard,
		UnitTest:   eng.UnitTest(p, answer).Score(),
	}
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

// EvaluateModelVia runs a model over a problem set with the given
// generation options, streaming every kept problem through the
// two-stage pipeline: an IO-sized generation stage (gen's provider and caches,
// fan-out set by gen.Concurrency()) feeding the engine's CPU-sized
// execution pool, with the pipeline's backpressure window keeping
// generations at most a bounded lead ahead of scoring. Results land in
// problem order, so the output is byte-identical to the serial path
// regardless of schedule. Generation failures score as empty answers
// and latch into gen.Err.
func EvaluateModelVia(eng *engine.Engine, gen *inference.Dispatcher, m llm.Model, problems []dataset.Problem, opts llm.GenOptions) []ProblemScore {
	kept := evalProblems(m, problems)
	// One warm pass compiles what both key pipelines read (unit-test
	// digests for eng, prompt digests and token counts for gen) before
	// the parallel phase starts.
	engine.WarmDigests(problems)
	inference.WarmPrompts(problems, opts.Shots)
	out := make([]ProblemScore, len(kept))
	tm := newTextMemo(len(kept))
	engine.Pipeline(eng, len(kept), gen.Concurrency(), 0,
		func(i int) string {
			return gen.Answer(m, problems[kept[i]], opts)
		},
		func(i int, answer string) {
			s := scoreAnswerMemo(eng, tm, problems[kept[i]], answer)
			s.Model = m.Name
			out[i] = s
		})
	return out
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

// Metric extracts a named aggregate value.
func (a ModelAggregate) Metric(name string) float64 {
	switch name {
	case "bleu":
		return a.BLEU
	case "edit_distance":
		return a.EditDist
	case "exact_match":
		return a.ExactMatch
	case "kv_exact":
		return a.KVExact
	case "kv_wildcard":
		return a.KVWildcard
	case "unit_test":
		return a.UnitTest
	}
	return 0
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

// BenchmarkVia runs the full zero-shot benchmark — every model over
// every problem — returning rows sorted by unit-test score (Table 4)
// plus the raw per-problem scores for downstream analysis. It flattens
// the campaign into one job per (model, problem) pair and streams the
// whole matrix through the two-stage pipeline at once, so a slow model cannot leave workers idle while another still
// has problems queued, and provider latency overlaps with unit-test
// execution instead of adding to it. Generations route through gen —
// the sim zoo, a recorded trace, or a live endpoint, plus the
// generation caches. Scores are written to pair-indexed slots and
// regrouped afterwards: the rows and raw map are byte-identical to
// BenchmarkSerial's.
func BenchmarkVia(eng *engine.Engine, gen *inference.Dispatcher, models []llm.Model, problems []dataset.Problem) ([]ModelAggregate, map[string][]ProblemScore) {
	type pair struct{ model, problem int }
	pairs := make([]pair, 0, len(models)*len(problems))
	counts := make([]int, len(models))
	for mi, m := range models {
		kept := evalProblems(m, problems)
		counts[mi] = len(kept)
		for _, pi := range kept {
			pairs = append(pairs, pair{mi, pi})
		}
	}
	// One warm pass compiles what both key pipelines read before the
	// parallel matrix starts: unit-test digests for eng, prompt digests
	// and token counts for gen.
	engine.WarmDigests(problems)
	inference.WarmPrompts(problems, 0)
	scores := make([]ProblemScore, len(pairs))
	tm := newTextMemo(len(pairs))
	engine.Pipeline(eng, len(pairs), gen.Concurrency(), 0,
		func(i int) string {
			return gen.Answer(models[pairs[i].model], problems[pairs[i].problem], llm.GenOptions{})
		},
		func(i int, answer string) {
			pr := pairs[i]
			s := scoreAnswerMemo(eng, tm, problems[pr.problem], answer)
			s.Model = models[pr.model].Name
			scores[i] = s
		})

	rows := make([]ModelAggregate, 0, len(models))
	raw := make(map[string][]ProblemScore, len(models))
	offset := 0
	for mi, m := range models {
		modelScores := scores[offset : offset+counts[mi] : offset+counts[mi]]
		offset += counts[mi]
		raw[m.Name] = modelScores
		rows = append(rows, Aggregate(m, modelScores))
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].UnitTest > rows[j].UnitTest })
	return rows, raw
}

// BenchmarkSerial is the pre-engine campaign loop: models evaluated one
// after another, each problem sequentially, no cache. Kept as the
// baseline for the engine's determinism and speedup claims.
func BenchmarkSerial(models []llm.Model, problems []dataset.Problem) ([]ModelAggregate, map[string][]ProblemScore) {
	rows := make([]ModelAggregate, 0, len(models))
	raw := make(map[string][]ProblemScore, len(models))
	for _, m := range models {
		scores := EvaluateModelSerial(m, problems, llm.GenOptions{})
		raw[m.Name] = scores
		rows = append(rows, Aggregate(m, scores))
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
