package evalcluster

import (
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
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

// startStore starts an in-process coordination store for one test.
func startStore(t *testing.T) string {
	t.Helper()
	srv := miniredis.NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return addr
}

// TestMasterWorkerOverTCP exercises the coordination path cloudeval
// node master takes: an engine over a ClusterExecutor, a miniredis server,
// several workers, real sockets.
func TestMasterWorkerOverTCP(t *testing.T) {
	addr := startStore(t)
	problems := dataset.Generate()[:24]
	exec, err := NewClusterExecutor(addr, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	master := engine.New(engine.WithExecutor(exec), engine.WithWorkers(len(problems)))
	defer master.Close()

	// An execution takes tens of microseconds — one worker can drain 24
	// jobs before the next one's first BRPOP arrives — so that two
	// workers take part is arranged, not hoped for: a worker does not
	// execute the first job it claims until a second worker has claimed
	// one too (see firstJobGate).
	second := &rendezvous{met: make(chan struct{})}
	processed := make([]int, 4)
	var wg sync.WaitGroup
	defer wg.Wait()
	defer second.open() // on a failure below, the workers idle out
	for i := range processed {
		w, err := NewWorker(addr, fmt.Sprintf("worker-%d", i), problems)
		if err != nil {
			t.Fatal(err)
		}
		w.UseStore(&firstJobGate{meet: second})
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer w.Close()
			n, err := w.Run(time.Second)
			if err != nil {
				t.Errorf("worker: %v", err)
			}
			processed[i] = n
		}()
	}

	// Half the answers are correct (the reference), half empty.
	results := make([]unittest.Result, len(problems))
	master.ForEach(len(problems), func(i int) {
		answer := ""
		if i%2 == 0 {
			answer = yamlmatch.StripLabels(problems[i].ReferenceYAML)
		}
		results[i] = master.UnitTest(problems[i], answer)
	})
	wg.Wait()
	for i, r := range results {
		id := problems[i].ID
		if r.Err != nil {
			t.Errorf("%s: %v", id, r.Err)
		}
		if r.Passed != (i%2 == 0) {
			t.Errorf("%s: passed = %v, want %v (%s)", id, r.Passed, i%2 == 0, r.Output)
		}
	}
	total, took := 0, 0
	for _, n := range processed {
		total += n
		if n > 0 {
			took++
		}
	}
	// The master's cache keeps jobs with the script and answer of an
	// earlier one off the wire.
	if sent := master.Stats().Executed; int64(total) != sent {
		t.Errorf("workers processed %d jobs, the master sent %d", total, sent)
	}
	if took < 2 {
		t.Errorf("only %d workers participated; expected parallel draining", took)
	}
}

// countingStore counts the executions a worker records in its store.
type countingStore struct {
	engine.CacheStore
	puts atomic.Int64
}

func (c *countingStore) Put(test, answer [sha256.Size]byte, res unittest.Result) {
	c.puts.Add(1)
	c.CacheStore.Put(test, answer, res)
}

// TestWorkerConsultsStore: a fleet worker backed by a persistent store
// executes each distinct (problem, answer) once; repeated jobs — even
// after the worker restarts against a reopened store — are answered
// from memory or disk.
func TestWorkerConsultsStore(t *testing.T) {
	addr := startStore(t)
	path := filepath.Join(t.TempDir(), "worker.store")
	problems := dataset.Generate()[:4]
	answer := yamlmatch.StripLabels(problems[0].ReferenceYAML)

	exec, err := NewClusterExecutor(addr, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer exec.Close()

	// runBatch sends n identical jobs to a new worker over the store at
	// path and returns how many it executed.
	runBatch := func(n int) int64 {
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
		counted := &countingStore{CacheStore: st}
		w.UseStore(counted)
		done := make(chan error, 1)
		go func() {
			_, err := w.Run(300 * time.Millisecond)
			done <- err
		}()
		for i := 0; i < n; i++ {
			r := exec.RunUnitTest(problems[0], answer)
			if r.Err != nil || !r.Passed {
				t.Fatalf("reference answer: passed=%v err=%v (%s)", r.Passed, r.Err, r.Output)
			}
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		return counted.puts.Load()
	}

	if n := runBatch(3); n != 1 {
		t.Errorf("first batch: %d executions, want 1", n)
	}
	// A restarted worker against the reopened store never executes.
	if n := runBatch(2); n != 0 {
		t.Errorf("restarted worker: %d executions, want 0", n)
	}
}

// TestWorkerFailureIsAnError: a job a worker cannot run — its problem
// is not in the worker's list, or its unit test does not parse — comes
// back to the master as an error, not as a failing test, and nothing of
// it is stored.
func TestWorkerFailureIsAnError(t *testing.T) {
	addr := startStore(t)
	problems := dataset.Generate()[:2]
	broken := problems[1]
	broken.UnitTest = "echo `date`" // the shell refuses backticks at parse time

	exec, err := NewClusterExecutor(addr, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	master := engine.New(engine.WithExecutor(exec))
	defer master.Close()

	st, err := store.Open(filepath.Join(t.TempDir(), "worker.store"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, tc := range []struct {
		name     string
		problems []dataset.Problem // the worker's list
		problem  dataset.Problem   // the master's job
		want     string
	}{
		{"unknown problem", problems[1:], problems[0], "unknown problem " + problems[0].ID},
		{"unparsable unit test", []dataset.Problem{broken}, broken, "command substitution"},
	} {
		w, err := NewWorker(addr, "w", tc.problems)
		if err != nil {
			t.Fatal(err)
		}
		w.UseStore(st)
		done := make(chan error, 1)
		go func() {
			_, err := w.Run(300 * time.Millisecond)
			done <- err
		}()
		r := master.UnitTest(tc.problem, "a: 1")
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		w.Close()
		if r.Err == nil || !strings.Contains(r.Err.Error(), tc.want) {
			t.Errorf("%s: master result %+v, want an Err naming %q", tc.name, r, tc.want)
		}
	}
	if n := st.Len(); n != 0 {
		t.Errorf("worker store holds %d results of jobs that did not run, want 0", n)
	}
}
