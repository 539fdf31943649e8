package llm

import (
	"math/rand"
	"testing"

	"cloudeval/internal/augment"
	"cloudeval/internal/dataset"
)

// TestPooledRNGMatchesFresh pins the pooled generators to the streams
// a fresh rand.New(rand.NewSource(seed)) gives, for both streams of
// every (model, problem) pair of Table 4. Each generator goes back to
// the pool after a different number of draws, so the next pair always
// gets one with used state; every 101st stream runs past the source's
// 607-word register (three or more numbers a round), so some of that
// state is a register the lazy seed had filled completely.
func TestPooledRNGMatchesFresh(t *testing.T) {
	problems := augment.ExpandCorpus(dataset.Generate())
	draws, streams := 0, 0
	for _, m := range Models {
		for _, p := range problems {
			for _, perSample := range []bool{true, false} {
				pooled := m.rng(p, GenOptions{}, perSample)
				fresh := rand.New(rand.NewSource(m.seed(p, GenOptions{}, perSample)))
				draws = draws%7 + 1
				rounds := draws
				if streams++; streams%101 == 0 {
					rounds += 230
				}
				for i := 0; i < rounds; i++ {
					if a, b := pooled.Int63(), fresh.Int63(); a != b {
						t.Fatalf("%s on %s (perSample=%v) draw %d: pooled Int63 %d, fresh %d", m.Name, p.ID, perSample, i, a, b)
					}
					if a, b := pooled.NormFloat64(), fresh.NormFloat64(); a != b {
						t.Fatalf("%s on %s (perSample=%v) draw %d: pooled NormFloat64 %v, fresh %v", m.Name, p.ID, perSample, i, a, b)
					}
					if a, b := pooled.Intn(i+3), fresh.Intn(i+3); a != b {
						t.Fatalf("%s on %s (perSample=%v) draw %d: pooled Intn %d, fresh %d", m.Name, p.ID, perSample, i, a, b)
					}
				}
				rngPool.Put(pooled)
			}
		}
	}
}
