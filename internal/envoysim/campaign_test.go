package envoysim_test

// In the external test package because the campaign's packages import envoysim.

import (
	"testing"

	"cloudeval/internal/augment"
	"cloudeval/internal/dataset"
	"cloudeval/internal/engine"
	"cloudeval/internal/envoysim"
	"cloudeval/internal/inference"
	"cloudeval/internal/llm"
	"cloudeval/internal/score"
)

// TestTable4CampaignNeverEvicts: a full Table 4 campaign, on a fresh
// engine and an empty bootstrap cache, fills under a quarter of the
// cache's budget, so no campaign-shaped workload evicts.
func TestTable4CampaignNeverEvicts(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark in -short mode")
	}
	envoysim.EmptyCache(t)
	gen := inference.NewDispatcher(inference.NewSim(llm.Models))
	score.NewEvaluator(engine.New(), gen).Benchmark(llm.Models, augment.ExpandCorpus(dataset.Generate()))
	st := envoysim.CacheStats()
	t.Logf("bootstrap cache: %d entries, %d of %d bytes", st.Entries, st.Bytes, st.Capacity)
	if st.Evictions != 0 || st.Entries == 0 || 4*st.Bytes > st.Capacity {
		t.Errorf("bootstrap cache after a campaign: %+v, want entries, no evictions and under a quarter of the budget", st)
	}
}
