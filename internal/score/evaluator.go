package score

import (
	"cloudeval/internal/dataset"
	"cloudeval/internal/engine"
	"cloudeval/internal/inference"
	"cloudeval/internal/llm"
	"cloudeval/internal/stage"
)

// Evaluator runs the paper's evaluations: it scores one answer, and it
// generates and scores whole studies — Table 4's matrix, one model's
// run, Table 5's variants, Table 6's few-shot prompts and Figure 8's
// pass@k. It holds the engine every unit test is submitted through
// and the dispatcher every generation routes through. Whoever owns the
// process builds one, once — a binary, the cloudeval facade, a test —
// and hands it to what evaluates; nothing below looks one up.
type Evaluator struct {
	eng *engine.Engine
	gen *inference.Dispatcher
}

// NewEvaluator builds an evaluator whose unit tests run on eng and
// whose generations route through gen: the sim zoo, a record/replay
// trace or a live endpoint, behind the dispatcher's caches. gen may be
// nil for an evaluator that only scores answers it is given (Score).
func NewEvaluator(eng *engine.Engine, gen *inference.Dispatcher) *Evaluator {
	return &Evaluator{eng: eng, gen: gen}
}

// Engine returns the engine the evaluator's unit tests run on.
func (ev *Evaluator) Engine() *engine.Engine { return ev.eng }

// Dispatcher returns the dispatcher the evaluator generates through.
func (ev *Evaluator) Dispatcher() *inference.Dispatcher { return ev.gen }

// Score computes all six metrics of answer, submitting the unit test —
// the function-level metric that needs a simulated cluster — through
// the engine. The five text-level and YAML-aware metrics run inline on
// the problem's compiled reference; the two-string functions they
// equal bit for bit stay in scoreAnswerSerial, the oracle.
func (ev *Evaluator) Score(p dataset.Problem, answer string) ProblemScore {
	return ev.score(p, answer, refFor(p).score(answer))
}

func (ev *Evaluator) score(p dataset.Problem, answer string, t textScores) ProblemScore {
	return ProblemScore{
		ProblemID:  p.ID,
		Variant:    p.Variant,
		Answer:     answer,
		BLEU:       t.bleu,
		EditDist:   t.editDist,
		ExactMatch: t.exactMatch,
		KVExact:    t.kvExact,
		KVWildcard: t.kvWildcard,
		UnitTest:   ev.eng.UnitTest(p, answer).Score(),
	}
}

// Model runs one model over a problem set with the given generation
// options; see run. Generation failures score as empty answers and
// latch into the dispatcher's Err.
func (ev *Evaluator) Model(m llm.Model, problems []dataset.Problem, opts llm.GenOptions) []ProblemScore {
	return ev.run([]llm.Model{m}, problems, opts)[0]
}

// Benchmark runs the zero-shot benchmark — every model over every
// problem — and returns the rows sorted by unit-test score (Table 4)
// plus the raw per-problem scores for downstream analysis. The rows
// and the raw map are byte-identical to BenchmarkSerial's.
func (ev *Evaluator) Benchmark(models []llm.Model, problems []dataset.Problem) ([]ModelAggregate, map[string][]ProblemScore) {
	return rank(models, ev.run(models, problems, llm.GenOptions{}))
}

// run flattens models × problems into one job per (model, problem)
// pair the model answers (English-only APIs skip translated questions)
// and streams them all through the two-stage pipeline at once: an
// IO-sized generation stage (fan-out set by the dispatcher's
// Concurrency) feeding the engine's CPU-sized execution pool, with the
// pipeline's backpressure window keeping generations a bounded lead
// ahead of scoring. A slow model cannot leave workers idle while
// another still has problems queued, and provider latency overlaps
// unit-test execution instead of adding to it. Scores land in
// pair-indexed slots and come back grouped per model in problem order,
// so the output does not depend on the schedule.
func (ev *Evaluator) run(models []llm.Model, problems []dataset.Problem, opts llm.GenOptions) [][]ProblemScore {
	stage.Set(stage.Campaign)
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
	// parallel phase starts: unit-test digests for the engine, prompt
	// digests and token counts for the dispatcher.
	stage.Set(stage.Engine)
	engine.WarmDigests(problems)
	stage.Set(stage.Prompt)
	inference.WarmPrompts(problems, opts.Shots)
	stage.Set(stage.Campaign)
	scores := make([]ProblemScore, len(pairs))
	tm := newTextMemo(len(pairs))
	engine.Pipeline(ev.eng, len(pairs), ev.gen.Concurrency(), 0,
		func(i int) string {
			return ev.gen.Answer(models[pairs[i].model], problems[pairs[i].problem], opts)
		},
		func(i int, answer string) {
			stage.Set(stage.Score)
			pr := pairs[i]
			p := problems[pr.problem]
			s := ev.score(p, answer, tm.score(refFor(p), answer))
			s.Model = models[pr.model].Name
			scores[i] = s
		})
	perModel := make([][]ProblemScore, len(models))
	for mi, n := range counts {
		perModel[mi], scores = scores[:n:n], scores[n:]
	}
	return perModel
}

// PassAtK runs multi-sample generation (§4.2): for each problem, up to
// maxK samples at the given temperature; the problem counts as passed
// at k when any of the first k samples passes its unit test. Returns
// pass counts indexed by k-1.
//
// The study is scheduled round by round: round k streams (generate
// sample k, execute its unit test) through the two-stage pipeline over
// exactly the problems still unresolved after round k-1. The early
// exit after the first passing sample — the paper's lazy sampling — is
// therefore preserved to the generation: sample k is drawn for
// precisely the problems whose first k samples all failed, the same
// set a serial per-problem loop draws it for, so both the counts and
// the provider bill match the serial path exactly.
func (ev *Evaluator) PassAtK(m llm.Model, problems []dataset.Problem, maxK int, temperature float64) []int {
	firstPass := make([]int, len(problems)) // index of first passing sample, or -1
	pending := make([]int, len(problems))   // problem indices still unresolved
	for i := range problems {
		firstPass[i] = -1
		pending[i] = i
	}
	for k := 0; k < maxK && len(pending) > 0; k++ {
		opts := llm.GenOptions{Sample: k, Temperature: temperature}
		passed := make([]bool, len(pending))
		engine.Pipeline(ev.eng, len(pending), ev.gen.Concurrency(), 0,
			func(j int) string {
				return ev.gen.Answer(m, problems[pending[j]], opts)
			},
			func(j int, ans string) {
				passed[j] = ev.eng.UnitTest(problems[pending[j]], ans).Passed
			})
		still := pending[:0]
		for j, idx := range pending {
			if passed[j] {
				firstPass[idx] = k
			} else {
				still = append(still, idx)
			}
		}
		pending = still
	}
	out := make([]int, maxK)
	for k := 1; k <= maxK; k++ {
		n := 0
		for _, idx := range firstPass {
			if idx >= 0 && idx < k {
				n++
			}
		}
		out[k-1] = n
	}
	return out
}

// Variants computes Table 5: m's unit-test passes on the original,
// simplified and translated subsets of all, with -1 (N/A) for the
// translated subset of an English-only model.
func (ev *Evaluator) Variants(m llm.Model, all []dataset.Problem) map[dataset.Variant]int {
	out := map[dataset.Variant]int{}
	for _, variant := range []dataset.Variant{dataset.Original, dataset.Simplified, dataset.Translated} {
		if m.EnglishOnly && variant == dataset.Translated {
			out[variant] = -1
			continue
		}
		var subset []dataset.Problem
		for _, p := range all {
			if p.Variant == variant {
				subset = append(subset, p)
			}
		}
		out[variant] = passes(ev.Model(m, subset, llm.GenOptions{}))
	}
	return out
}

// FewShot computes Table 6: m's unit-test passes on originals with
// 0..maxShots few-shot examples in the prompt, indexed by shots.
func (ev *Evaluator) FewShot(m llm.Model, originals []dataset.Problem, maxShots int) []int {
	out := make([]int, maxShots+1)
	for shots := range out {
		out[shots] = passes(ev.Model(m, originals, llm.GenOptions{Shots: shots}))
	}
	return out
}

// passes counts the scores whose unit test passed.
func passes(scores []ProblemScore) int {
	n := 0
	for _, s := range scores {
		if s.UnitTest == 1 {
			n++
		}
	}
	return n
}

// ScoreAnswerWith is Score on an evaluator over eng. Only bench/
// calls it; it goes with ROADMAP item 6(a).
func ScoreAnswerWith(eng *engine.Engine, p dataset.Problem, answer string) ProblemScore {
	return (&Evaluator{eng: eng}).Score(p, answer)
}

// BenchmarkVia is Benchmark on an evaluator over eng and gen. Only
// bench/ calls it; it goes with ROADMAP item 6(a).
func BenchmarkVia(eng *engine.Engine, gen *inference.Dispatcher, models []llm.Model, problems []dataset.Problem) ([]ModelAggregate, map[string][]ProblemScore) {
	return NewEvaluator(eng, gen).Benchmark(models, problems)
}
