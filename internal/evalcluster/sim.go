// Package evalcluster models the scalable evaluation cluster of §3.3:
// Simulate is a deterministic discrete-event model of N workers
// draining the corpus's unit-test jobs behind a shared 100 Mbps
// uplink, with or without the shared Docker image cache — the
// generator of Figure 5's evaluation-time curves and of Table 3's
// campaign durations.
package evalcluster

import (
	"sort"
	"time"

	"cloudeval/internal/dataset"
	"cloudeval/internal/engine"
	"cloudeval/internal/registry"
	"cloudeval/internal/yamlmatch"
)

// SimConfig parameterizes a Figure 5 run.
type SimConfig struct {
	Workers int
	// SharedCache enables the master's pull-through registry cache.
	SharedCache bool
	// WANMbps is the internet bandwidth shared by the whole cluster
	// (the paper provisions 100 Mbps).
	WANMbps float64
	// LANMbps is the intra-cluster bandwidth to the shared cache.
	LANMbps float64
	// SetupTime is the fixed per-job environment cost (cluster create,
	// apply, cleanup) on top of the script's own waits.
	SetupTime time.Duration
	// DispatchOverhead is the serialized master-side cost of assigning a
	// job and recording its result; it bounds scaling like any
	// coordinator.
	DispatchOverhead time.Duration
	// ImageScale discounts pull sizes for shared base layers between
	// images already present on a worker (1 = no sharing).
	ImageScale float64
}

// DefaultSimConfig mirrors the paper's testbed: 100 Mbps shared
// internet, 1 Gbps LAN, and a cluster-setup cost of tens of seconds.
func DefaultSimConfig(workers int, sharedCache bool) SimConfig {
	return SimConfig{
		Workers:          workers,
		SharedCache:      sharedCache,
		WANMbps:          100,
		LANMbps:          1000,
		SetupTime:        32 * time.Second,
		DispatchOverhead: 1200 * time.Millisecond,
		ImageScale:       0.6,
	}
}

// Job is one unit-test execution request in the simulation.
type Job struct {
	ProblemID string
	// TestTime is the virtual time the script itself consumes.
	TestTime time.Duration
	// Images are the container images the test environment pulls.
	Images []string
}

// JobsFromProblems derives the simulation workload from the corpus by
// measuring each problem's actual unit-test virtual time (running the
// reference answer) and extracting its image set. The measurement runs
// are scheduled on eng — and memoized there, so campaigns that later
// evaluate a correct answer (textually the clean reference) reuse
// these executions for free.
func JobsFromProblems(eng *engine.Engine, problems []dataset.Problem) []Job {
	jobs := make([]Job, len(problems))
	eng.ForEach(len(problems), func(i int) {
		p := problems[i]
		res := eng.UnitTest(p, yamlmatch.StripLabels(p.ReferenceYAML))
		jobs[i] = Job{
			ProblemID: p.ID,
			TestTime:  res.VirtualTime,
			Images:    registry.ImagesFor(p),
		}
	})
	return jobs
}

// SimResult is one simulated evaluation campaign.
type SimResult struct {
	Workers     int
	SharedCache bool
	// Total is the campaign makespan in virtual time.
	Total time.Duration
	// WANTrafficMB is the internet traffic the campaign generated.
	WANTrafficMB float64
	CacheHits    int
	CacheMisses  int
}

// Simulate runs the discrete-event model: jobs dispatch FIFO to the
// earliest-available worker; each worker holds a local Docker cache, so
// it pulls any given image at most once; without the shared cache every
// first-touch pull crosses the WAN, with it only the cluster-wide first
// touch does.
func Simulate(jobs []Job, cfg SimConfig) SimResult {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	wan := registry.NewLink(cfg.WANMbps)
	lan := registry.NewLink(cfg.LANMbps)
	var puller registry.Puller
	var cache *registry.PullThroughCache
	if cfg.SharedCache {
		cache = registry.NewPullThroughCache(wan, lan)
		puller = cache
	} else {
		puller = &registry.DirectPuller{WAN: wan}
	}

	freeAt := make([]time.Duration, cfg.Workers)
	localCache := make([]map[string]bool, cfg.Workers)
	for i := range localCache {
		localCache[i] = make(map[string]bool)
	}
	if cfg.ImageScale <= 0 {
		cfg.ImageScale = 1
	}

	var makespan, masterBusy time.Duration
	for _, job := range jobs {
		// Earliest-available worker takes the next job.
		w := 0
		for i := 1; i < cfg.Workers; i++ {
			if freeAt[i] < freeAt[w] {
				w = i
			}
		}
		// The master serializes job dispatch and result bookkeeping.
		t := freeAt[w]
		if masterBusy > t {
			t = masterBusy
		}
		masterBusy = t + cfg.DispatchOverhead
		t = masterBusy
		for _, img := range job.Images {
			if localCache[w][img] {
				continue
			}
			size := registry.SizeMB(img)
			if len(localCache[w]) > 0 {
				// Later images share base layers already on the worker.
				size *= cfg.ImageScale
			}
			t = puller.PullBytes(img, size, t)
			localCache[w][img] = true
		}
		t += cfg.SetupTime + job.TestTime
		freeAt[w] = t
		if t > makespan {
			makespan = t
		}
	}
	res := SimResult{
		Workers:      cfg.Workers,
		SharedCache:  cfg.SharedCache,
		Total:        makespan,
		WANTrafficMB: wan.TotalMB(),
	}
	if cache != nil {
		res.CacheHits = cache.Hits
		res.CacheMisses = cache.Misses
	}
	return res
}

// Figure5 sweeps worker counts with and without the shared cache,
// producing the paper's Figure 5 series.
func Figure5(jobs []Job, workerCounts []int) []SimResult {
	var out []SimResult
	for _, cached := range []bool{false, true} {
		for _, w := range workerCounts {
			out = append(out, Simulate(jobs, DefaultSimConfig(w, cached)))
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].SharedCache != out[j].SharedCache {
			return !out[i].SharedCache
		}
		return out[i].Workers < out[j].Workers
	})
	return out
}
