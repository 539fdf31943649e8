package score

import (
	"math"
	"sync"
	"testing"

	"cloudeval/internal/dataset"
	"cloudeval/internal/engine"
	"cloudeval/internal/inference"
	"cloudeval/internal/llm"
)

func sixBits(s ProblemScore) [6]uint64 {
	var b [6]uint64
	for i, name := range Metrics {
		b[i] = math.Float64bits(s.Metric(name))
	}
	return b
}

// TestCampaignMemoMatchesDirect holds the call-scoped text memo of
// Evaluator.Benchmark to the path that has none: every raw score of the
// full Table 4 matrix equals, bit for bit, Evaluator.Score called for that
// op on a fresh engine. The memo sits in front of the five text metrics
// only — the engine must still have been asked about every op.
func TestCampaignMemoMatchesDirect(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark in -short mode")
	}
	problems := fullCorpus()
	eng := engine.New()
	_, raw := NewEvaluator(eng, inference.NewDispatcher(inference.NewSim(llm.Models))).Benchmark(llm.Models, problems)
	if st := eng.Stats(); st.Executed != 5736 || st.CacheHits != 7459 {
		t.Errorf("campaign engine: executed %d, cache hits %d; want 5736 / 7459 (every op submitted)", st.Executed, st.CacheHits)
	}

	direct := NewEvaluator(engine.New(), nil)
	ops, distinct := 0, map[textKey]bool{}
	for _, m := range llm.Models {
		kept, scores := evalProblems(m, problems), raw[m.Name]
		if len(kept) != len(scores) {
			t.Fatalf("%s: %d scores for %d problems", m.Name, len(scores), len(kept))
		}
		for i, pi := range kept {
			p, got := problems[pi], scores[i]
			want := direct.Score(p, got.Answer)
			want.Model = m.Name
			if got.ProblemID != want.ProblemID || got.Variant != want.Variant || got.Model != want.Model || sixBits(got) != sixBits(want) {
				t.Errorf("%s on %s: campaign %+v, direct %+v", m.Name, p.ID, got, want)
			}
			ops++
			distinct[textKey{refFor(p), got.Answer}] = true
		}
	}
	// The repeat fraction DESIGN.md §2.13 quotes; if the zoo or the
	// corpus moves it, the memo's sizing comment moves with it.
	if ops != 13195 || len(distinct) != 5759 {
		t.Errorf("%d ops, %d distinct (reference, answer) pairs; want 13195 / 5759", ops, len(distinct))
	}
}

// TestTextMemoConcurrent sends 16 goroutines through one memo over the
// same handful of keys — every model's answer to one problem, against
// that problem's reference and against another's, so equal answers
// under different references must stay apart. Every read equals the
// direct score and the memo ends with one entry per key. Under -race
// it also shows the map is never touched outside the lock.
func TestTextMemoConcurrent(t *testing.T) {
	p, answers := table4Answers()
	refs := []*refContext{refFor(p), refFor(dataset.Generate()[1])}
	if refs[0] == refs[1] {
		t.Fatal("the two problems share a reference")
	}
	want := map[textKey]textScores{}
	for _, ref := range refs {
		for _, a := range answers {
			want[textKey{ref, a}] = ref.score(a)
		}
	}
	tm := newTextMemo(len(want))
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 20*len(answers); k++ {
				i := (k + g) % (2 * len(answers)) // goroutines disagree on what runs when
				ref, a := refs[i/len(answers)], answers[i%len(answers)]
				if got := tm.score(ref, a); got != want[textKey{ref, a}] {
					t.Errorf("goroutine %d: memo %+v, direct %+v", g, got, want[textKey{ref, a}])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if len(tm.m) != len(want) {
		t.Errorf("memo holds %d entries for %d keys", len(tm.m), len(want))
	}
}
