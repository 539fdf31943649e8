package evalcluster

import (
	"testing"
	"time"

	"cloudeval/internal/dataset"
	"cloudeval/internal/engine"
)

func TestSimulateScalingShape(t *testing.T) {
	jobs := JobsFromProblems(engine.New(), dataset.Generate())
	if len(jobs) != dataset.TotalOriginal {
		t.Fatalf("jobs = %d", len(jobs))
	}
	t1 := Simulate(jobs, DefaultSimConfig(1, false))
	t4 := Simulate(jobs, DefaultSimConfig(4, false))
	t16 := Simulate(jobs, DefaultSimConfig(16, false))
	t64 := Simulate(jobs, DefaultSimConfig(64, false))
	t64c := Simulate(jobs, DefaultSimConfig(64, true))
	t1c := Simulate(jobs, DefaultSimConfig(1, true))

	// Monotone speedup with workers.
	if !(t1.Total > t4.Total && t4.Total > t16.Total && t16.Total > t64.Total) {
		t.Errorf("scaling not monotone: %v %v %v %v", t1.Total, t4.Total, t16.Total, t64.Total)
	}
	// Single-machine evaluation takes hours of virtual time, like the
	// paper's 10.4 h.
	if t1.Total < 2*time.Hour || t1.Total > 24*time.Hour {
		t.Errorf("single-worker campaign = %v, expected hours", t1.Total)
	}
	// Parallel speedup at 64 workers is an order of magnitude but far
	// from perfectly linear (the paper reports 13x).
	speedup := float64(t1.Total) / float64(t64.Total)
	if speedup < 6 || speedup > 40 {
		t.Errorf("64-worker speedup = %.1fx, want order-of-magnitude", speedup)
	}
	// Shared caching helps meaningfully at 64 workers (paper: 1.6x)...
	cacheGain := float64(t64.Total) / float64(t64c.Total)
	if cacheGain < 1.15 || cacheGain > 4 {
		t.Errorf("cache gain at 64 workers = %.2fx, want >1.15x", cacheGain)
	}
	// ...but barely matters on one machine (paper: 10.4 vs 10.3 h).
	singleGain := float64(t1.Total) / float64(t1c.Total)
	if singleGain > 1.10 {
		t.Errorf("cache gain at 1 worker = %.2fx, should be marginal", singleGain)
	}
	// Caching cuts WAN traffic.
	if t64c.WANTrafficMB >= t64.WANTrafficMB {
		t.Errorf("cached WAN traffic %v >= uncached %v", t64c.WANTrafficMB, t64.WANTrafficMB)
	}
	if t64c.CacheHits == 0 {
		t.Error("cache recorded no hits")
	}
}

func TestSimulateDeterministic(t *testing.T) {
	jobs := JobsFromProblems(engine.New(), dataset.Generate()[:60])
	a := Simulate(jobs, DefaultSimConfig(8, true))
	b := Simulate(jobs, DefaultSimConfig(8, true))
	if a != b {
		t.Errorf("simulation not deterministic: %+v vs %+v", a, b)
	}
}

func TestFigure5Sweep(t *testing.T) {
	jobs := JobsFromProblems(engine.New(), dataset.Generate()[:100])
	results := Figure5(jobs, []int{1, 4, 16, 64})
	if len(results) != 8 {
		t.Fatalf("results = %d, want 8", len(results))
	}
	// First half uncached ascending workers, second half cached.
	if results[0].SharedCache || !results[4].SharedCache {
		t.Errorf("ordering broken: %+v", results)
	}
}
