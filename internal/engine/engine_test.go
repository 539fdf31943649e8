package engine_test

import (
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cloudeval/internal/augment"
	"cloudeval/internal/dataset"
	"cloudeval/internal/engine"
	"cloudeval/internal/inference"
	"cloudeval/internal/llm"
	"cloudeval/internal/score"
	"cloudeval/internal/store"
	"cloudeval/internal/unittest"
	"cloudeval/internal/yamlmatch"
)

// countingExecutor wraps the in-process pool and counts executions, so
// tests can assert how many unit tests actually ran beneath the cache.
type countingExecutor struct {
	engine.PoolExecutor
	runs atomic.Int64
}

func (c *countingExecutor) Name() string { return "counting" }

func (c *countingExecutor) RunUnitTest(p dataset.Problem, answer string) unittest.Result {
	c.runs.Add(1)
	return c.PoolExecutor.RunUnitTest(p, answer)
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	eng := engine.New(engine.WithWorkers(8))
	const n = 10000
	counts := make([]atomic.Int32, n)
	eng.ForEach(n, func(i int) { counts[i].Add(1) })
	for i := range counts {
		if got := counts[i].Load(); got != 1 {
			t.Fatalf("index %d ran %d times", i, got)
		}
	}
}

// TestForEachSlowIndexDoesNotStrandOthers: index 0 blocks until every
// other index has run. A scheduler that queues indices behind a busy
// goroutine (static per-worker chunks) never runs the rest of index
// 0's chunk; one whose idle goroutines take the next index does.
func TestForEachSlowIndexDoesNotStrandOthers(t *testing.T) {
	eng := engine.New(engine.WithWorkers(4))
	const n = 64
	var others atomic.Int32
	rest := make(chan struct{})
	eng.ForEach(n, func(i int) {
		if i == 0 {
			select {
			case <-rest:
			case <-time.After(10 * time.Second):
				t.Errorf("only %d of %d other indices ran while index 0 was blocked", others.Load(), n-1)
			}
			return
		}
		if others.Add(1) == n-1 {
			close(rest)
		}
	})
}

// TestPanicReachesCaller: a panic on any worker of ForEach, or in
// either stage of Pipeline, comes back to the caller with its original
// value once every goroutine has returned, instead of killing the
// process. No index is claimed after the panic, so a single goroutine
// stops at the panicking index, and the pipeline gauges drain.
func TestPanicReachesCaller(t *testing.T) {
	const n, bad = 64, 7
	type boom struct{ i int }
	before := runtime.NumGoroutine()
	var calls atomic.Int64
	count := func(i int) int {
		calls.Add(1)
		if i == bad {
			panic(boom{i})
		}
		return i
	}
	eng1, eng4 := engine.New(engine.WithWorkers(1)), engine.New(engine.WithWorkers(4))
	for _, tc := range []struct {
		name      string
		eng       *engine.Engine
		run       func()
		wantCalls int64 // 0: any number
	}{
		{"ForEach", eng4, func() { eng4.ForEach(n, func(i int) { count(i) }) }, 0},
		{"ForEach/one worker", eng1, func() { eng1.ForEach(n, func(i int) { count(i) }) }, bad + 1},
		{"Pipeline/gen", eng4, func() {
			engine.Pipeline(eng4, n, 1, 0, count, func(i, v int) {
				if i == bad || v != i {
					t.Errorf("exec(%d, %d) ran on a failed generation", i, v)
				}
			})
		}, bad + 1},
		{"Pipeline/exec", eng4, func() {
			engine.Pipeline(eng4, n, 3, 0, func(i int) int { return i }, func(i, _ int) { count(i) })
		}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			calls.Store(0)
			got := func() (v any) {
				defer func() { v = recover() }()
				tc.run()
				return nil
			}()
			if got != (boom{bad}) {
				t.Fatalf("caller recovered %v, want %v", got, boom{bad})
			}
			if tc.wantCalls != 0 && calls.Load() != tc.wantCalls {
				t.Errorf("%d calls, want %d: an index was claimed after the panic", calls.Load(), tc.wantCalls)
			}
			if st := tc.eng.Stats(); st.GenInflight != 0 || st.QueueDepth != 0 || st.ExecBusy != 0 {
				t.Errorf("pipeline gauges did not drain: %+v", st)
			}
		})
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left running, %d before", runtime.NumGoroutine(), before)
		}
	}
}

// TestCacheHitDuplicateAnswers is the memoization contract: a batch
// with duplicate (problem, answer) pairs executes the unit test exactly
// once, and every duplicate reports the same outcome as a cache hit.
func TestCacheHitDuplicateAnswers(t *testing.T) {
	p := dataset.Generate()[0]
	answer := yamlmatch.StripLabels(p.ReferenceYAML)
	exec := &countingExecutor{}
	eng := engine.New(engine.WithExecutor(exec), engine.WithWorkers(8))

	const n = 50
	results := make([]unittest.Result, n)
	eng.ForEach(n, func(i int) { results[i] = eng.UnitTest(p, answer) })

	if got := exec.runs.Load(); got != 1 {
		t.Errorf("duplicate answers executed %d unit tests, want exactly 1", got)
	}
	for i, r := range results {
		if !r.Passed {
			t.Fatalf("duplicate %d: reference answer failed: %s", i, r.Output)
		}
	}
	st := eng.Stats()
	if st.Executed != 1 || st.CacheHits != int64(n-1) {
		t.Errorf("stats = %+v, want 1 executed / %d hits", st, n-1)
	}
}

func TestCacheDistinguishesProblemsAndAnswers(t *testing.T) {
	ps := dataset.Generate()[:2]
	exec := &countingExecutor{}
	eng := engine.New(engine.WithExecutor(exec), engine.WithWorkers(4))
	// Same answer text against two problems, plus a second answer
	// against the first problem: three distinct cache keys.
	answer := yamlmatch.StripLabels(ps[0].ReferenceYAML)
	eng.UnitTest(ps[0], answer)
	eng.UnitTest(ps[1], answer)
	eng.UnitTest(ps[0], answer+"\n# trailing comment")
	eng.UnitTest(ps[0], answer) // repeat of the first
	if got := exec.runs.Load(); got != 3 {
		t.Errorf("executed %d unit tests, want 3 distinct keys", got)
	}
}

// flakyExecutor fails its first call and succeeds afterwards.
type flakyExecutor struct {
	engine.PoolExecutor
	calls atomic.Int64
}

func (f *flakyExecutor) RunUnitTest(p dataset.Problem, answer string) unittest.Result {
	if f.calls.Add(1) == 1 {
		return unittest.Result{Err: fmt.Errorf("transient outage")}
	}
	return f.PoolExecutor.RunUnitTest(p, answer)
}

// TestErroredResultsNotCached: a transient executor failure must not be
// frozen into the memoization cache — the next identical call
// re-executes and succeeds. A unit test that does not parse comes back
// as an Err, not as a failing test, and is neither cached nor stored.
func TestErroredResultsNotCached(t *testing.T) {
	p := dataset.Generate()[0]
	answer := yamlmatch.StripLabels(p.ReferenceYAML)
	exec := &flakyExecutor{}
	eng := engine.New(engine.WithExecutor(exec), engine.WithWorkers(2))
	if res := eng.UnitTest(p, answer); res.Err == nil {
		t.Fatal("first call should surface the transient error")
	}
	if res := eng.UnitTest(p, answer); res.Err != nil || !res.Passed {
		t.Fatalf("second call should re-execute and pass, got %+v", res)
	}
	if got := exec.calls.Load(); got != 2 {
		t.Errorf("executor called %d times, want 2", got)
	}
	// And the successful result is cached normally.
	if res := eng.UnitTest(p, answer); !res.Passed {
		t.Fatal("third call should hit the cache")
	}
	if got := exec.calls.Load(); got != 2 {
		t.Errorf("executor called %d times after cache hit, want 2", got)
	}

	broken := p
	broken.UnitTest = "echo `date`" // the shell refuses backticks at parse time
	st, err := store.Open(filepath.Join(t.TempDir(), "eval.store"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	stored := engine.New(engine.WithStore(st))
	for range 2 {
		if r := stored.UnitTest(broken, "a: 1"); r.Err == nil || !strings.Contains(r.Err.Error(), "command substitution") {
			t.Errorf("unparsable unit test: %+v, want an Err naming %q", r, "command substitution")
		}
	}
	if n := st.Len(); n != 0 {
		t.Errorf("store holds %d results of a unit test that did not run, want 0", n)
	}
	if got := stored.Stats().Executed; got != 2 {
		t.Errorf("unparsable unit test executed %d times, want 2", got)
	}
}

// TestParallelMatchesSerialTable4 is the determinism contract of the
// whole refactor: the engine-scheduled campaign must render a Table 4
// byte-identical to the serial seed loop, and the raw per-problem
// scores must match exactly.
func TestParallelMatchesSerialTable4(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark in -short mode")
	}
	full := augment.ExpandCorpus(dataset.Generate())
	serialRows, serialRaw := score.BenchmarkSerial(llm.Models, full)
	serialTable := score.FormatTable4(serialRows)

	// 1 worker pins the degenerate pipeline (generation still fans out
	// ahead of a single executor); 4 workers is the shipped default
	// shape; 16 workers with GOMAXPROCS raised to match oversubscribes
	// this test machine and hammers the sharded caches from more
	// goroutines than shards on small boxes — the configuration most
	// likely to surface an ordering or lost-update bug under -race.
	// The provider injects key-derived randomized latency so every
	// generation completes out of order with its neighbours: any
	// schedule-dependence in the pipeline's result placement would
	// break byte-identity here.
	for _, workers := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(workers)
			defer runtime.GOMAXPROCS(prev)
			eng := engine.New(engine.WithWorkers(workers))
			prov := inference.NewDelay(inference.NewSim(llm.Models), 0, time.Millisecond)
			gen := inference.NewDispatcher(prov, inference.WithoutGenCache())
			parRows, parRaw := score.NewEvaluator(eng, gen).Benchmark(llm.Models, full)

			if parallel := score.FormatTable4(parRows); serialTable != parallel {
				t.Errorf("Table 4 differs between serial and parallel runs:\n--- serial ---\n%s--- parallel ---\n%s", serialTable, parallel)
			}
			if !reflect.DeepEqual(serialRaw, parRaw) {
				t.Error("raw per-problem scores differ between serial and parallel runs")
			}
			if st := eng.Stats(); st.Executed == 0 {
				t.Error("engine executed nothing")
			}
		})
	}
}

// TestPipelineBackpressure pins the pipeline's admission invariant:
// with window K, the number of generations started but not yet
// executed never exceeds K, no matter how much faster the generation
// stage runs than the execution stage.
func TestPipelineBackpressure(t *testing.T) {
	const (
		n      = 96
		window = 8
	)
	eng := engine.New(engine.WithWorkers(2))
	var started, executed atomic.Int64
	var maxLead atomic.Int64
	out := make([]int, n)
	engine.Pipeline(eng, n, 16, window,
		func(i int) int {
			s := started.Add(1)
			// executed only grows between the Add and the Load, so the
			// observed lead is a lower bound on the true lead — it can
			// never falsely exceed the window.
			lead := s - executed.Load()
			for {
				cur := maxLead.Load()
				if lead <= cur || maxLead.CompareAndSwap(cur, lead) {
					break
				}
			}
			return i * i
		},
		func(i, v int) {
			time.Sleep(500 * time.Microsecond) // exec slower than gen
			out[i] = v
			executed.Add(1)
		})
	if got := maxLead.Load(); got > window {
		t.Errorf("pipeline ran %d generations ahead of execution, window is %d", got, window)
	}
	// The pipeline must actually run ahead — a lead that never exceeds
	// the executor count would mean generation and execution serialized
	// and the test proved nothing about backpressure.
	if got := maxLead.Load(); got <= 2 {
		t.Errorf("max lead %d never exceeded the executor count; generation did not overlap execution", got)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d: results landed in the wrong slots", i, v, i*i)
		}
	}
	// All depth gauges must return to zero once the pipeline drains.
	if st := eng.Stats(); st.GenInflight != 0 || st.QueueDepth != 0 || st.ExecBusy != 0 {
		t.Errorf("pipeline gauges did not drain: %+v", st)
	}
}

// TestPipelineGenConcurrencyCap: the generation stage never exceeds
// the dispatcher's in-flight limit, observed at the provider itself
// via the Delay wrapper's high-water mark.
func TestPipelineGenConcurrencyCap(t *testing.T) {
	const genCap = 3
	prov := inference.NewDelay(inference.NewSim(llm.Models), 200*time.Microsecond, 300*time.Microsecond)
	gen := inference.NewDispatcher(prov, inference.WithConcurrency(genCap), inference.WithoutGenCache())
	eng := engine.New(engine.WithWorkers(4))
	problems := dataset.Generate()[:32]
	model := llm.Models[0]
	engine.Pipeline(eng, len(problems), gen.Concurrency(), 0,
		func(i int) string { return gen.Answer(model, problems[i], llm.GenOptions{}) },
		func(i int, answer string) { eng.UnitTest(problems[i], answer) })
	if peak := prov.MaxInFlight(); peak > genCap {
		t.Errorf("provider saw %d concurrent generations, cap is %d", peak, genCap)
	}
}

// TestStoreTierServesAcrossEngines: a result executed under one engine
// is served from the persistent store by a second engine sharing the
// same store path — across a close/reopen, as two processes would.
func TestStoreTierServesAcrossEngines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "eval.store")
	p := dataset.Generate()[0]
	answer := yamlmatch.StripLabels(p.ReferenceYAML)

	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	exec1 := &countingExecutor{}
	eng1 := engine.New(engine.WithExecutor(exec1), engine.WithStore(st))
	if res := eng1.UnitTest(p, answer); !res.Passed {
		t.Fatalf("reference answer failed: %s", res.Output)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	exec2 := &countingExecutor{}
	eng2 := engine.New(engine.WithExecutor(exec2), engine.WithStore(st2))
	if res := eng2.UnitTest(p, answer); !res.Passed {
		t.Fatalf("store-served answer failed: %s", res.Output)
	}
	if got := exec2.runs.Load(); got != 0 {
		t.Errorf("second engine executed %d unit tests, want 0 (store hit)", got)
	}
	stats := eng2.Stats()
	if stats.Executed != 0 || stats.StoreHits != 1 {
		t.Errorf("second engine stats = %+v, want 0 executed / 1 store hit", stats)
	}
}

// TestWarmStoreFullCampaign is the PR's acceptance contract: a repeated
// full Table 4 campaign against a warm store executes zero unit tests
// and renders byte-identical output.
func TestWarmStoreFullCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark in -short mode")
	}
	path := filepath.Join(t.TempDir(), "eval.store")
	full := augment.ExpandCorpus(dataset.Generate())

	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	gen := inference.NewDispatcher(inference.NewSim(llm.Models))
	coldEng := engine.New(engine.WithStore(st))
	coldRows, _ := score.NewEvaluator(coldEng, gen).Benchmark(llm.Models, full)
	coldStats := coldEng.Stats()
	if coldStats.Executed == 0 {
		t.Fatal("cold campaign executed nothing")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh process: new store handle, new engine, empty in-memory
	// cache. The whole campaign must come off disk.
	st2, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	// One frame per key: a campaign records each result once, which is
	// why the store needs no compaction. A key re-recorded with new
	// content would show here as a superseded frame.
	if op := st2.LastOpen(); op.ScannedFrames != st2.Len() {
		t.Errorf("cold campaign left %d frames for %d keys, want one frame per key", op.ScannedFrames, st2.Len())
	}
	exec := &countingExecutor{}
	warmEng := engine.New(engine.WithExecutor(exec), engine.WithStore(st2))
	warmRows, _ := score.NewEvaluator(warmEng, gen).Benchmark(llm.Models, full)

	if got := st2.Appended(); got != 0 {
		t.Errorf("warm campaign appended %d frames, want 0", got)
	}
	if got := exec.runs.Load(); got != 0 {
		t.Errorf("warm campaign executed %d unit tests, want 0", got)
	}
	warmStats := warmEng.Stats()
	if warmStats.Executed != 0 {
		t.Errorf("warm campaign engine counter: executed = %d, want 0", warmStats.Executed)
	}
	if warmStats.StoreHits == 0 {
		t.Error("warm campaign recorded no store hits")
	}
	if cold, warm := score.FormatTable4(coldRows), score.FormatTable4(warmRows); cold != warm {
		t.Errorf("Table 4 differs between cold and warm-store campaigns:\n--- cold ---\n%s--- warm ---\n%s", cold, warm)
	}
}

// TestTable4CampaignNeverEvicts pins the traffic the two cache budgets
// were sized from: a full Table 4 campaign leaves 5,736 results in the
// engine and 13,195 responses in the dispatcher, a small fraction of
// either budget, so no campaign-shaped workload ever evicts.
func TestTable4CampaignNeverEvicts(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark in -short mode")
	}
	eng := engine.New()
	gen := inference.NewDispatcher(inference.NewSim(llm.Models))
	score.NewEvaluator(eng, gen).Benchmark(llm.Models, augment.ExpandCorpus(dataset.Generate()))
	es, gs := eng.Stats(), gen.Stats()
	if es.CacheEvictions != 0 || gs.CacheEvictions != 0 {
		t.Fatalf("a campaign evicted: engine %d, dispatcher %d", es.CacheEvictions, gs.CacheEvictions)
	}
	if es.CacheEntries != 5736 || es.CacheBytes != 1655802 {
		t.Errorf("engine cache holds %d results / %d bytes, want 5736 / 1655802", es.CacheEntries, es.CacheBytes)
	}
	if gs.CacheEntries != 13195 || gs.CacheBytes != 7780746 {
		t.Errorf("dispatcher cache holds %d responses / %d bytes, want 13195 / 7780746", gs.CacheEntries, gs.CacheBytes)
	}
	if es.CacheBytes*8 > engine.CacheBudget || gs.CacheBytes*8 > engine.CacheBudget {
		t.Errorf("a campaign (%d / %d bytes) is more than an eighth of the %d budget", es.CacheBytes, gs.CacheBytes, engine.CacheBudget)
	}
}

// floodExecutor answers "answer-<i>" with exit code i and a 4 KiB
// Output shared by every result: the cache charges each entry its
// length, so a flood of distinct answers overruns the budget without
// the test holding that much memory.
type floodExecutor struct{ runs atomic.Int64 }

var floodOutput = strings.Repeat("x", 4096)

func (f *floodExecutor) Name() string { return "flood" }
func (f *floodExecutor) RunUnitTest(_ dataset.Problem, answer string) unittest.Result {
	f.runs.Add(1)
	i, _ := strconv.Atoi(strings.TrimPrefix(answer, "answer-"))
	return unittest.Result{Output: floodOutput, ExitCode: i}
}

// memStore is an in-memory engine.CacheStore.
type memStore struct {
	mu sync.Mutex
	m  map[[2][32]byte]unittest.Result
}

func (s *memStore) Get(test, answer [32]byte) (unittest.Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	res, ok := s.m[[2][32]byte{test, answer}]
	return res, ok
}

func (s *memStore) Put(test, answer [32]byte, res unittest.Result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[[2][32]byte{test, answer}] = res
}

// TestEngineCacheStaysUnderBudget floods one engine with more distinct
// literal answers than its cache budget holds — what the daemon's
// /v1/eval traffic does over days. Resident cost stays under the
// budget, every answer still gets its own result, and an evicted key
// is served by the next tier down: the store when there is one, a
// fresh execution when there is not.
func TestEngineCacheStaysUnderBudget(t *testing.T) {
	const answers = 24000 // x (4 KiB + overhead) = 1.5 budgets
	p := dataset.Generate()[0]
	for _, withStore := range []bool{false, true} {
		t.Run(fmt.Sprintf("store=%v", withStore), func(t *testing.T) {
			exec := &floodExecutor{}
			opts := []engine.Option{engine.WithExecutor(exec), engine.WithWorkers(8)}
			if withStore {
				opts = append(opts, engine.WithStore(&memStore{m: map[[2][32]byte]unittest.Result{}}))
			}
			eng := engine.New(opts...)
			// answer-0 goes in alone, before the flood, so that it is
			// the oldest key of its shard whichever worker the
			// scheduler lets run first.
			flood := func(i int) {
				if res := eng.UnitTest(p, fmt.Sprintf("answer-%d", i)); res.ExitCode != i {
					t.Errorf("answer-%d got answer-%d's result", i, res.ExitCode)
				}
				if i%500 == 0 {
					if st := eng.Stats(); st.CacheBytes > engine.CacheBudget {
						t.Errorf("cache holds %d bytes, budget %d", st.CacheBytes, engine.CacheBudget)
					}
				}
			}
			flood(0)
			eng.ForEach(answers-1, func(i int) { flood(i + 1) })
			st := eng.Stats()
			if st.CacheBytes > engine.CacheBudget || st.CacheEvictions == 0 || st.Executed != answers {
				t.Fatalf("after the flood: %+v, want bytes <= %d, evictions, %d executed", st, engine.CacheBudget, answers)
			}
			if st.CacheEntries+int(st.CacheEvictions) != answers {
				t.Errorf("%d resident + %d evicted != %d answers", st.CacheEntries, st.CacheEvictions, answers)
			}

			// The oldest key of every shard is long gone; the newest is not.
			if res := eng.UnitTest(p, "answer-0"); res.ExitCode != 0 || res.Output != floodOutput {
				t.Errorf("evicted key came back as %+v", res)
			}
			after := eng.Stats()
			if withStore {
				if after.StoreHits != 1 || after.Executed != answers {
					t.Errorf("evicted key with a store: %+v, want 1 store hit and no new execution", after)
				}
			} else if after.Executed != answers+1 {
				t.Errorf("evicted key without a store: %d executed, want %d", after.Executed, answers+1)
			}
			eng.UnitTest(p, "answer-0")
			if got := eng.Stats(); got.CacheHits != 1 || got.Executed != after.Executed {
				t.Errorf("re-admitted key: %+v, want 1 cache hit and no new execution", got)
			}
		})
	}
}
