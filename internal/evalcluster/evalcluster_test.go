package evalcluster

import (
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"cloudeval/internal/dataset"
	"cloudeval/internal/engine"
	"cloudeval/internal/miniredis"
	"cloudeval/internal/store"
	"cloudeval/internal/unittest"
	"cloudeval/internal/yamlmatch"
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

// rendezvous is passed once two parties have arrived at it.
type rendezvous struct {
	mu      sync.Mutex
	arrived int
	met     chan struct{}
	opened  sync.Once
}

func (r *rendezvous) open() { r.opened.Do(func() { close(r.met) }) }

func (r *rendezvous) arrive() {
	r.mu.Lock()
	r.arrived++
	two := r.arrived == 2
	r.mu.Unlock()
	if two {
		r.open()
	}
	<-r.met
}

// firstJobGate is a worker's evaluation store that holds nothing. A
// worker consults its store after claiming a job and before executing
// it, which makes Get the place to hold the worker's first job at the
// rendezvous.
type firstJobGate struct {
	meet  *rendezvous
	first sync.Once
}

func (g *firstJobGate) Get(_, _ [sha256.Size]byte) (unittest.Result, bool) {
	g.first.Do(g.meet.arrive)
	return unittest.Result{}, false
}

func (g *firstJobGate) Put(_, _ [sha256.Size]byte, _ unittest.Result) {}

// TestMasterWorkerOverTCP exercises the real coordination path: a
// miniredis server, one master, several workers, real sockets.
func TestMasterWorkerOverTCP(t *testing.T) {
	srv := miniredis.NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	problems := dataset.Generate()[:24]
	master, err := NewMaster(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()

	// All four workers connect first and wait for start, which closes
	// once every job is queued, so none idles out while the queue fills.
	// An execution takes tens of microseconds — one worker can drain 24
	// jobs before the next one's first BRPOP arrives — so that two
	// workers take part is arranged, not hoped for: a worker does not
	// execute the first job it claims until a second worker has claimed
	// one too (see firstJobGate).
	start := make(chan struct{})
	second := &rendezvous{met: make(chan struct{})}
	release := sync.OnceFunc(func() { close(start) })
	var wg sync.WaitGroup
	defer wg.Wait()
	defer second.open() // on a failure below, the workers idle out
	defer release()
	for i := 0; i < 4; i++ {
		w, err := NewWorker(addr, fmt.Sprintf("worker-%d", i), problems)
		if err != nil {
			t.Fatal(err)
		}
		w.UseStore(&firstJobGate{meet: second})
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer w.Close()
			<-start
			if _, err := w.Run(300 * time.Millisecond); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}

	// Half the answers are correct (the reference), half empty.
	wantPass := map[string]bool{}
	for i, p := range problems {
		answer := ""
		if i%2 == 0 {
			answer = yamlmatch.StripLabels(p.ReferenceYAML)
		}
		wantPass[p.ID] = i%2 == 0
		if _, err := master.Submit(p.ID, answer); err != nil {
			t.Fatal(err)
		}
	}
	release()

	results, err := master.Collect(len(problems), 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if len(results) != len(problems) {
		t.Fatalf("results = %d, want %d", len(results), len(problems))
	}
	workersSeen := map[string]bool{}
	for _, r := range results {
		if r.Passed != wantPass[r.ProblemID] {
			t.Errorf("%s: passed = %v, want %v (%s)", r.ProblemID, r.Passed, wantPass[r.ProblemID], r.Output)
		}
		workersSeen[r.Worker] = true
	}
	if len(workersSeen) < 2 {
		t.Errorf("only %d workers participated; expected parallel draining", len(workersSeen))
	}
	if n, _ := master.Pending(); n != 0 {
		t.Errorf("queue not drained: %d left", n)
	}
}

// TestWorkerConsultsStore: a fleet worker backed by a persistent store
// executes each distinct (problem, answer) once; repeated jobs — even
// after the worker restarts against a reopened store — are answered
// from disk with CacheHit set.
func TestWorkerConsultsStore(t *testing.T) {
	srv := miniredis.NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	path := filepath.Join(t.TempDir(), "worker.store")
	problems := dataset.Generate()[:4]
	answer := yamlmatch.StripLabels(problems[0].ReferenceYAML)

	master, err := NewMaster(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()

	runBatch := func(n int) []WireResult {
		t.Helper()
		st, err := store.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		w, err := NewWorker(addr, "store-worker", problems)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		w.UseStore(st)
		for i := 0; i < n; i++ {
			if _, err := master.Submit(problems[0].ID, answer); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := w.Run(300 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		results, err := master.Collect(n, 30*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return results
	}

	first := runBatch(3)
	hits := 0
	for _, r := range first {
		if !r.Passed {
			t.Fatalf("reference answer failed: %s", r.Output)
		}
		if r.CacheHit {
			hits++
		}
	}
	if hits != 2 {
		t.Errorf("first batch: %d cache hits, want 2 (one execution)", hits)
	}

	// A restarted worker against the reopened store never executes.
	second := runBatch(2)
	for _, r := range second {
		if !r.Passed || !r.CacheHit {
			t.Errorf("restarted worker result = %+v, want a passing store hit", r)
		}
	}
}
