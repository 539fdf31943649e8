package llm

import (
	"strings"
	"sync"
	"testing"

	"cloudeval/internal/augment"
	"cloudeval/internal/dataset"
	"cloudeval/internal/raceflag"
)

// generation is what a generation draws before it writes anything: its
// category, and for category 6 whether the answer is the clean
// reference (no noise drawn, or nothing to draw it on).
func generation(m Model, p dataset.Problem, opts GenOptions) (cat int, clean bool) {
	rng, latent := m.rng(p, opts, true), m.rng(p, opts, false)
	defer func() { rngPool.Put(rng); rngPool.Put(latent) }()
	cat = m.drawCategory(p, opts, rng, latent)
	clean = cat == 6 && (rng.Float64() >= m.Profile.NoiseWhenCorrect || contextFor(p).labeled == nil)
	return cat, clean
}

var responseSink string

// TestGenerateAllocs: every one of Table 4's 13,195 generations
// allocates at most once, the response string, and not at all when the
// answer is degenerate (categories 1–2, returned bare) or clean and
// unwrapped. Every category is reached, and so is a clean answer both
// wrapped and not. (A generation allocated 2.95 times on average when the
// answer and the wrapped response were separate strings, and 42 when
// the corruptors cloned the reference and marshalled the clone.)
func TestGenerateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector allocates")
	}
	problems := augment.ExpandCorpus(dataset.Generate())
	if testing.Short() {
		problems = problems[:len(problems)/8]
	}
	var reached [7]int
	pairs := 0
	var cleanBy [2]int // clean answers, unwrapped and wrapped
	for _, m := range Models {
		for _, p := range problems {
			if !table4Pair(m, p) {
				continue
			}
			opts := GenOptions{}
			cat, clean := generation(m, p, opts)
			reached[cat]++
			pairs++
			if clean && m.Profile.Wrap == WrapPlain {
				cleanBy[0]++
			} else if clean {
				cleanBy[1]++
			}
			want := 1.0
			if cat <= 2 || clean && m.Profile.Wrap == WrapPlain {
				want = 0
			}
			// Eight runs, so that one run on an arena the pool had dropped
			// (a GC empties it) does not make a generation look costly.
			if got := testing.AllocsPerRun(8, func() { responseSink = m.Generate(p, opts) }); got > want {
				t.Errorf("%s on %s (category %d, clean %v): %v allocations, want at most %v", m.Name, p.ID, cat, clean, got, want)
			}
		}
	}
	if !testing.Short() && pairs != 13195 {
		t.Errorf("%d Table 4 pairs, want 13195", pairs)
	}
	for cat := 1; cat <= 6; cat++ {
		if reached[cat] == 0 {
			t.Errorf("no generation reached category %d", cat)
		}
	}
	if cleanBy[0] == 0 || cleanBy[1] == 0 {
		t.Errorf("clean answers unwrapped and wrapped: %v, want some of each", cleanBy)
	}
	t.Logf("generations by category 1-6: %v; clean unwrapped, wrapped: %v", reached[1:], cleanBy)
}

// TestResponsesOutliveTheirArena: a response is a string of its own.
// Every Table 4 response of three models is kept, then the same
// generations run again on eight goroutines, recycling the pooled
// arenas whose buffers the kept responses were written in; every kept
// response still reads as it did. Under -race, a response that shared
// memory with a recycled arena is also a reported race.
func TestResponsesOutliveTheirArena(t *testing.T) {
	problems := augment.ExpandCorpus(dataset.Generate())
	if testing.Short() || raceflag.Enabled {
		problems = problems[:len(problems)/4]
	}
	models := []Model{Models[0], Models[4], Models[len(Models)-1]}
	type kept struct{ resp, copy string }
	var all []kept
	for _, m := range models {
		for _, p := range problems {
			r := m.Generate(p, GenOptions{})
			all = append(all, kept{r, strings.Clone(r)})
		}
	}
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range problems {
				p := problems[(i*7+g)%len(problems)]
				for _, m := range models {
					m.Generate(p, GenOptions{Sample: g, Temperature: 0.8})
				}
			}
		}()
	}
	wg.Wait()
	for i, k := range all {
		if k.resp != k.copy {
			t.Fatalf("response %d changed after its arena was recycled:\n%q\nwas\n%q", i, k.resp, k.copy)
		}
	}
}
