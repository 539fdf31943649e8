package core_test

import (
	"context"
	"path/filepath"
	"sync/atomic"
	"testing"

	"cloudeval/internal/core"
	"cloudeval/internal/dataset"
	"cloudeval/internal/engine"
	"cloudeval/internal/inference"
	"cloudeval/internal/llm"
	"cloudeval/internal/score"
	"cloudeval/internal/store"
)

// countingProvider counts live generations reaching the backend.
type countingProvider struct {
	inner inference.Provider
	calls atomic.Int64
}

func (c *countingProvider) Name() string { return "counting(" + c.inner.Name() + ")" }
func (c *countingProvider) Generate(ctx context.Context, req inference.Request) (inference.Response, error) {
	c.calls.Add(1)
	return c.inner.Generate(ctx, req)
}
func (c *countingProvider) Close() error { return c.inner.Close() }

// TestRecordReplayRoundTripTable4 is the provider layer's acceptance
// test: record the full zero-shot campaign through the Sim provider
// to a JSONL trace, then rebuild the benchmark on the Replay provider
// and regenerate Table 4. The table must be byte-identical and the
// replay must serve every generation from the trace — zero live
// generations, zero misses.
func TestRecordReplayRoundTripTable4(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "gen.trace")
	// One engine for both passes: unit tests memoize across them, so
	// the test isolates the generation path.
	eng := engine.New()

	rec, err := inference.NewRecord(trace, inference.NewSim(llm.Models))
	if err != nil {
		t.Fatal(err)
	}
	recorded := core.NewVia(eng, inference.NewDispatcher(rec))
	want := recorded.Table4()
	if err := recorded.Evaluator().Dispatcher().Err(); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	replay, err := inference.OpenReplay(trace)
	if err != nil {
		t.Fatal(err)
	}
	if replay.Len() == 0 {
		t.Fatal("empty trace")
	}
	replayed := core.NewVia(eng, inference.NewDispatcher(replay))
	got := replayed.Table4()
	if err := replayed.Evaluator().Dispatcher().Err(); err != nil {
		t.Fatalf("replay fell short of the campaign: %v", err)
	}
	if got != want {
		t.Errorf("replayed Table 4 differs from the recorded campaign:\n--- recorded ---\n%s--- replayed ---\n%s", want, got)
	}
	// Families leaderboard shares the ZeroShot campaign, so the full
	// corpus (extension families included) was replayed too.
	if gf, wf := replayed.FamilyLeaderboard(), recorded.FamilyLeaderboard(); gf != wf {
		t.Error("replayed family leaderboard differs")
	}
}

// TestWarmGenerationStore proves the persistent generation cache: a
// campaign run against a warm store issues zero provider calls — the
// generation-side mirror of engine's TestWarmStoreFullCampaign.
func TestWarmGenerationStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "eval.store")
	originals := dataset.Generate()[:12]
	models := llm.Models[:3]

	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	cold := &countingProvider{inner: inference.NewSim(models)}
	b1 := core.New(score.NewEvaluator(engine.New(engine.WithStore(st)), inference.NewDispatcher(cold, inference.WithGenStore(st))), originals, models)
	want := b1.Table4()
	if cold.calls.Load() == 0 {
		t.Fatal("cold campaign generated nothing")
	}
	if st.GenLen() == 0 {
		t.Fatal("no generations persisted")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh process: new store handle, new dispatcher, new engine.
	st2, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	warm := &countingProvider{inner: inference.NewSim(models)}
	disp2 := inference.NewDispatcher(warm, inference.WithGenStore(st2))
	b2 := core.New(score.NewEvaluator(engine.New(engine.WithStore(st2)), disp2), originals, models)
	got := b2.Table4()
	if got != want {
		t.Error("warm-store Table 4 differs from the cold run")
	}
	if calls := warm.calls.Load(); calls != 0 {
		t.Errorf("warm campaign issued %d provider calls, want 0", calls)
	}
	if stats := disp2.Stats(); stats.StoreHits == 0 || stats.Generated != 0 {
		t.Errorf("warm dispatcher stats = %+v, want all store hits", stats)
	}
}
