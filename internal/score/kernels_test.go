package score

import (
	"math"
	"sync"
	"testing"

	"cloudeval/internal/dataset"
	"cloudeval/internal/engine"
	"cloudeval/internal/llm"
	"cloudeval/internal/raceflag"
	"cloudeval/internal/textmetrics"
	"cloudeval/internal/unittest"
	"cloudeval/internal/yamlmatch"
)

// noExecutor answers every unit test with a zero Result, so that
// Evaluator.Score costs its five inline metrics and the engine's
// bookkeeping, not a simulated cluster.
type noExecutor struct{}

func (noExecutor) Name() string                                        { return "none" }
func (noExecutor) RunUnitTest(dataset.Problem, string) unittest.Result { return unittest.Result{} }
func (noExecutor) Close() error                                        { return nil }

// oracle computes the five inline metrics with the two-string
// functions, as scoreAnswerSerial does.
func oracle(p dataset.Problem, answer string) [5]float64 {
	clean := yamlmatch.StripLabels(p.ReferenceYAML)
	return [5]float64{
		textmetrics.BLEU(answer, clean),
		textmetrics.EditDistanceScore(answer, clean),
		textmetrics.ExactMatch(answer, clean),
		yamlmatch.KVExactMatch(answer, clean),
		yamlmatch.KVWildcardMatch(answer, p.ReferenceYAML),
	}
}

func inline(s ProblemScore) [5]float64 {
	return [5]float64{s.BLEU, s.EditDist, s.ExactMatch, s.KVExact, s.KVWildcard}
}

func sameBits(a, b [5]float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestCompiledKernelsMatchOracleTable4 runs Evaluator.Score against the
// two-string functions over every (model, problem) pair of Table 4 —
// the extracted answer, and the raw response with the model's prose,
// fences and truncations still on it — and requires all five inline
// metrics to agree to the bit.
func TestCompiledKernelsMatchOracleTable4(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix in -short mode")
	}
	ev := NewEvaluator(engine.New(engine.WithExecutor(noExecutor{})), nil)
	problems := fullCorpus()
	pairs := 0
	for _, m := range llm.Models {
		for _, pi := range evalProblems(m, problems) {
			p := problems[pi]
			raw := m.Generate(p, llm.GenOptions{})
			for _, answer := range []string{llm.Postprocess(raw), raw} {
				got, want := inline(ev.Score(p, answer)), oracle(p, answer)
				if !sameBits(got, want) {
					t.Errorf("%s on %s: compiled %v, two-string %v\nanswer: %q", m.Name, p.ID, got, want, answer)
				}
			}
			pairs++
		}
	}
	if pairs < 12000 {
		t.Errorf("compared %d pairs, want the whole Table 4 matrix", pairs)
	}
}

// table4Answers returns one problem of the corpus and every model's
// answer to it.
func table4Answers() (dataset.Problem, []string) {
	p := dataset.Generate()[0]
	var answers []string
	for _, m := range llm.Models {
		answers = append(answers, llm.Postprocess(m.Generate(p, llm.GenOptions{})))
	}
	return p, answers
}

// TestSharedReferenceFromManyGoroutines scores one problem's answers
// from 16 goroutines at once, all on the one compiled reference, and
// compares each score with the serial oracle: pooled scratch must
// never carry one call's state into another. Under -race it also
// shows that scoring only reads the compiled forms.
func TestSharedReferenceFromManyGoroutines(t *testing.T) {
	ev := NewEvaluator(engine.New(engine.WithExecutor(noExecutor{})), nil)
	p, answers := table4Answers()
	want := make([][5]float64, len(answers))
	for i, a := range answers {
		want[i] = oracle(p, a)
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 20*len(answers); k++ {
				i := (k + g) % len(answers) // goroutines disagree on what runs when
				if got := inline(ev.Score(p, answers[i])); !sameBits(got, want[i]) {
					t.Errorf("goroutine %d, answer %d: got %v, want %v", g, i, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// scoreAnswerMaxAllocs caps what Evaluator.Score, the per-request path
// of the daemon's /v1/eval, may allocate per call
// beyond the engine's unit-test lookup, on a warm reference: slack for a
// float leaf rendered for comparison (yamlx.ParseAllCached hashes the
// answer without copying it, so it measures 0). The two-string forms
// took ~330.
const scoreAnswerMaxAllocs = 4

func TestScoreAnswerAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	eng := engine.New(engine.WithExecutor(noExecutor{}))
	ev := NewEvaluator(eng, nil)
	p, answers := table4Answers()
	for i, a := range answers {
		ev.Score(p, a) // compile the reference, parse the answer, memoize the unit test
		all := testing.AllocsPerRun(50, func() { ev.Score(p, a) })
		unit := testing.AllocsPerRun(50, func() { eng.UnitTest(p, a) })
		if all-unit > scoreAnswerMaxAllocs {
			t.Errorf("answer %d: Score %v allocs, of them UnitTest %v: the five inline metrics take %v, cap %d",
				i, all, unit, all-unit, scoreAnswerMaxAllocs)
		}
	}
}

// BenchmarkInlineMetrics times the five inline metrics over the Table 4
// pairs, compiled against two-string (the two KV metrics together, as
// they share the answer's parse): the per-kernel ledger behind DESIGN.md
// §2.13. One op is one answer scored.
func BenchmarkInlineMetrics(b *testing.B) {
	type pair struct {
		p      dataset.Problem
		ref    *refContext
		clean  string
		answer string
	}
	var pairs []pair
	problems := fullCorpus()
	for _, m := range llm.Models {
		for _, pi := range evalProblems(m, problems) {
			p := problems[pi]
			ref := refFor(p)
			pairs = append(pairs, pair{p, ref, ref.kv.Clean, llm.Postprocess(m.Generate(p, llm.GenOptions{}))})
		}
	}
	metrics := []struct {
		name                string
		compiled, twoString func(pr *pair) float64
	}{
		{"bleu",
			func(pr *pair) float64 { return pr.ref.bleu.Score(pr.answer) },
			func(pr *pair) float64 { return textmetrics.BLEU(pr.answer, pr.clean) }},
		{"edit_distance",
			func(pr *pair) float64 { return pr.ref.lines.EditDistanceScore(pr.answer) },
			func(pr *pair) float64 { return textmetrics.EditDistanceScore(pr.answer, pr.clean) }},
		{"exact_match",
			func(pr *pair) float64 { return pr.ref.lines.ExactMatch(pr.answer) },
			func(pr *pair) float64 { return textmetrics.ExactMatch(pr.answer, pr.clean) }},
		{"kv_exact+kv_wildcard",
			func(pr *pair) float64 { e, w := pr.ref.kv.Score(pr.answer); return e + w },
			func(pr *pair) float64 {
				return yamlmatch.KVExactMatch(pr.answer, pr.clean) + yamlmatch.KVWildcardMatch(pr.answer, pr.p.ReferenceYAML)
			}},
	}
	var sink float64
	for i := range pairs { // parse every answer and size the pooled scratch before any timer runs
		for _, m := range metrics {
			sink += m.compiled(&pairs[i])
		}
	}
	for _, m := range metrics {
		for _, form := range []struct {
			name string
			f    func(pr *pair) float64
		}{{"compiled", m.compiled}, {"two-string", m.twoString}} {
			b.Run(m.name+"/"+form.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sink += form.f(&pairs[i%len(pairs)])
				}
			})
		}
	}
	_ = sink
}
