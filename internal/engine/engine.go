// Package engine is the unified parallel evaluation engine behind the
// benchmark: every functional evaluation — one candidate answer run
// against one problem's unit test — is one UnitTest call on an
// Executor, and ForEach and Pipeline fan those calls out on one claim
// loop. The in-process pool (PoolExecutor) is the executor that ships;
// WithExecutor lets a caller wrap it, as a benchmark harness timing the
// layer below does. A content-addressed memoization cache — keyed by the
// digests of the unit-test script and the answer — sits above the
// executor, so augmented variants and repeated campaigns that share
// answers never re-run a simulated cluster, and concurrent duplicates
// collapse into a single execution. An optional persistent second tier
// (WithStore, implemented by internal/store) extends the cache across
// processes: a warm store lets a repeated campaign complete without
// executing anything.
//
// Layering: engine sits below score/analysis/core and above
// dataset/unittest.
package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"cloudeval/internal/dataset"
	"cloudeval/internal/memo"
	"cloudeval/internal/unittest"
)

// CacheStore is the persistent second cache tier under the engine's
// in-memory map (implemented by store.Store): Get serves a previously
// executed result by content digests, Put records a freshly executed
// one. Implementations must be safe for concurrent use and must treat
// Put as advisory — a failed append degrades to a smaller cache, never
// fails the evaluation.
type CacheStore interface {
	Get(test, answer [sha256.Size]byte) (unittest.Result, bool)
	Put(test, answer [sha256.Size]byte, res unittest.Result)
}

// Executor runs one unit test: PoolExecutor on the calling goroutine,
// or a wrapper around it. Implementations must be safe for concurrent
// use; the engine calls RunUnitTest from up to Workers goroutines at
// once.
type Executor interface {
	// Name identifies the executor.
	Name() string
	// RunUnitTest executes p's unit test against answer and blocks until
	// the result is in.
	RunUnitTest(p dataset.Problem, answer string) unittest.Result
}

// PoolExecutor executes unit tests inline on the scheduler's worker
// goroutines — the default, GOMAXPROCS-parallel path. Each call builds
// a fresh simulated environment, so concurrent executions share no
// state.
type PoolExecutor struct{}

// Name implements Executor.
func (PoolExecutor) Name() string { return "pool" }

// RunUnitTest implements Executor.
func (PoolExecutor) RunUnitTest(p dataset.Problem, answer string) unittest.Result {
	return unittest.Run(p, answer)
}

// Stats counts engine activity since construction.
type Stats struct {
	// Executed is the number of unit tests that actually ran on the
	// executor; CacheHits is the number served from memory and
	// StoreHits the number served from the persistent store instead.
	Executed  int64
	CacheHits int64
	StoreHits int64

	// CacheEntries, CacheBytes and CacheEvictions describe the
	// in-memory execution cache: how many results it holds, what they
	// are charged against cacheBudget, and how many it has dropped to
	// stay under it.
	CacheEntries   int
	CacheBytes     int64
	CacheEvictions int64

	// Pipeline depth gauges — instantaneous, not cumulative. While a
	// Pipeline call is running, GenInflight is how many stage-one
	// producer calls are executing right now, QueueDepth how many
	// completed items sit in the bounded hand-off channel awaiting an
	// executor, and ExecBusy how many stage-two workers are inside
	// their exec function. All three read zero when no pipeline is
	// active; a campaign that is IO-bound shows GenInflight pinned at
	// the generation limit with QueueDepth near zero, a CPU-bound one
	// the reverse.
	GenInflight int64
	QueueDepth  int64
	ExecBusy    int64
}

// Engine schedules evaluation jobs over an executor with memoization.
// The zero value is not usable; construct with New.
type Engine struct {
	exec    Executor
	workers int
	noCache bool
	store   CacheStore

	// cache is the sharded singleflight execution cache: keys hash by
	// digest prefix into GOMAXPROCS-scaled shards, so a fleet of
	// workers hitting distinct keys never serializes on one mutex the
	// way the original single-lock map did. It holds at most
	// cacheBudget; an evicted result is re-read from the store or
	// re-executed.
	cache *memo.LRU[cacheKey, unittest.Result]

	executed  atomic.Int64
	cacheHits atomic.Int64
	storeHits atomic.Int64

	// Pipeline depth gauges (see Stats).
	genInflight atomic.Int64
	queueDepth  atomic.Int64
	execBusy    atomic.Int64
}

// cacheKey content-addresses one evaluation: a unit-test outcome is a
// pure function of the test script and the candidate answer (the
// script sees the answer as labeled_code.yaml and nothing else of the
// problem), so keying on their digests — rather than the problem ID —
// both removes ID-aliasing hazards and lets augmented variants that
// share a script and answer reuse one execution.
type cacheKey struct {
	test   [sha256.Size]byte
	answer [sha256.Size]byte
}

// keyHash is a key's fingerprint, from the leading bytes of its
// digests — uniformly distributed by construction, so shards stay
// balanced. The answer's half is rotated so that a test and an answer
// of one text do not cancel to zero.
func keyHash(k cacheKey) uint64 {
	return binary.LittleEndian.Uint64(k.test[:8]) ^ bits.RotateLeft64(binary.LittleEndian.Uint64(k.answer[:8]), 32)
}

// cacheBudget caps the execution cache: a long-lived daemon is fed
// caller-supplied answers without end, so the cache cannot be sized by
// the corpus. A full Table 4 campaign keeps 5,736 results whose Output
// totals 187 KB — 1.6 MB as charged by resultCost — so 64 MiB is about
// forty campaigns' worth and no benchmark workload evicts
// (TestTable4CampaignNeverEvicts pins the figure).
const cacheBudget = 64 << 20

func resultCost(res unittest.Result) int64 { return memo.EntryOverhead + int64(len(res.Output)) }

// TestDigest is the SHA-256 of p's unit test, the first half of a
// result's cache and store key, computed once per problem (see
// dataset.Memo). The answer's half is computed per call, with
// memo.Digest: it is mostly text the engine has never seen.
func TestDigest(p dataset.Problem) [sha256.Size]byte {
	return dataset.Memo(p, dataset.TestDigest, func(p dataset.Problem) [sha256.Size]byte {
		return memo.Digest(p.UnitTest)
	})
}

// WarmDigests computes every problem's unit-test digest in one pass, so
// that a campaign's parallel phase starts on a compiled corpus.
func WarmDigests(problems []dataset.Problem) {
	for _, p := range problems {
		TestDigest(p)
	}
}

// Option configures an Engine.
type Option func(*Engine)

// WithExecutor swaps the default in-process pool for another executor,
// such as one that wraps it to time each execution.
func WithExecutor(exec Executor) Option { return func(e *Engine) { e.exec = exec } }

// WithoutCache disables answer memoization and the persistent store,
// forcing every job to execute (useful for benchmarking the raw
// executor).
func WithoutCache() Option { return func(e *Engine) { e.noCache = true } }

// WithStore attaches a persistent second cache tier (store.Store): on
// an in-memory miss the engine consults the store before executing,
// and records every fresh execution back into it. A warm store lets a
// repeated campaign — in a new process, or a CI run restoring the
// store as an artifact — complete without executing a single unit
// test.
func WithStore(s CacheStore) Option { return func(e *Engine) { e.store = s } }

// New builds an engine. By default it runs jobs on an in-process pool
// sized to GOMAXPROCS with memoization enabled.
func New(opts ...Option) *Engine {
	e := &Engine{
		exec:    PoolExecutor{},
		workers: runtime.GOMAXPROCS(0),
		cache:   memo.NewLRU[cacheKey, unittest.Result](keyHash, cacheBudget),
	}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Workers reports the scheduler's parallelism.
func (e *Engine) Workers() int { return e.workers }

// Stats snapshots the engine counters.
func (e *Engine) Stats() Stats {
	cs := e.cache.Stats()
	return Stats{
		Executed:       e.executed.Load(),
		CacheHits:      e.cacheHits.Load(),
		StoreHits:      e.storeHits.Load(),
		CacheEntries:   cs.Entries,
		CacheBytes:     cs.Bytes,
		CacheEvictions: cs.Evictions,
		GenInflight:    e.genInflight.Load(),
		QueueDepth:     e.queueDepth.Load(),
		ExecBusy:       e.execBusy.Load(),
	}
}

// UnitTest executes p's unit test against answer through the executor,
// serving duplicates from the cache. Concurrent calls with the same
// (problem, answer) collapse into one execution; the laggards block
// until the winner's result is in.
func (e *Engine) UnitTest(p dataset.Problem, answer string) unittest.Result {
	if e.noCache {
		e.executed.Add(1)
		return e.exec.RunUnitTest(p, answer)
	}
	key := cacheKey{test: TestDigest(p), answer: memo.Digest(answer)}
	fromStore := false
	// Returning res.Err as the singleflight error shares a failed
	// execution (a unit test that does not parse) with parked waiters
	// but never caches or stores it: future calls re-execute.
	res, _, hit := e.cache.Do(key, func() (unittest.Result, int64, error) {
		// Second tier: a result persisted by an earlier process (or a
		// CI cache restore) short-circuits execution entirely.
		if e.store != nil {
			if res, ok := e.store.Get(key.test, key.answer); ok {
				fromStore = true
				return res, resultCost(res), nil
			}
		}
		res := e.exec.RunUnitTest(p, answer)
		return res, resultCost(res), res.Err
	})
	switch {
	case hit:
		e.cacheHits.Add(1)
	case fromStore:
		e.storeHits.Add(1)
	default:
		e.executed.Add(1)
		if res.Err == nil && e.store != nil {
			e.store.Put(key.test, key.answer, res)
		}
	}
	return res
}

// ForEach runs fn(0..n-1) on up to Workers goroutines, each claiming
// the next unclaimed index until none is left, so a slow index holds
// up only the goroutine running it. Output written to index-addressed
// slots is therefore deterministic regardless of schedule. fn must be
// safe to call concurrently. ForEach returns when every index has run.
// If fn panics, no further index is claimed, and once every goroutine
// has returned ForEach panics on the caller with the first value.
func (e *Engine) ForEach(n int, fn func(int)) {
	if n <= 0 {
		return
	}
	var f fault
	spread(n, min(e.workers, n), &f, fn)
	f.raise()
}

// fault keeps the first panic raised on any goroutine of one ForEach
// or Pipeline call. Once it holds one, spread claims no further index.
type fault struct {
	hit atomic.Bool
	val any // written once, by the call that set hit
}

// run calls fn(i) and keeps a panic it raises, if it is the first.
func (f *fault) run(fn func(int), i int) {
	defer func() {
		if v := recover(); v != nil && f.hit.CompareAndSwap(false, true) {
			f.val = v
		}
	}()
	fn(i)
}

// raise re-raises the first panic on the calling goroutine. Call it
// once every goroutine that could set f has returned.
func (f *fault) raise() {
	if f.hit.Load() {
		panic(f.val)
	}
}

// spread is the engine's one claim loop: w goroutines each take the
// next unclaimed index of 0..n-1 from one counter and run fn on it,
// until none is left or f holds a panic. It returns once every
// goroutine has returned; a panic in fn is kept in f, not raised.
func spread(n, w int, f *fault, fn func(int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for range w {
		go func() {
			defer wg.Done()
			for !f.hit.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f.run(fn, i)
			}
		}()
	}
	wg.Wait()
}

// DefaultPipelineWindow is the backpressure window Pipeline resolves
// when the caller passes window <= 0: generations may lead executions
// by at most this many multiples of the engine's worker count — deep
// enough that an execution stall never starves the generators of a
// full window, shallow enough that a 1131-problem corpus never sits
// materialized in memory.
const DefaultPipelineWindow = 4

// Pipeline streams indices 0..n-1 through a two-stage producer/
// consumer graph with independent concurrency: genWorkers goroutines
// run gen (an IO-bound stage — a provider call), completed values flow
// through a bounded channel into e.Workers() goroutines running exec
// (the CPU-bound stage — a unit-test execution). It is the overlap
// counterpart of ForEach: where ForEach interleaves both stages on one
// CPU-sized pool (parking executors on provider latency), Pipeline
// sizes each stage on its own axis, so wall-clock approaches
// max(gen time, exec time) instead of their sum.
//
// genWorkers <= 0 means "as many as the window admits" — the right
// setting for providers with no real latency (sim, replay) and for
// dispatchers reporting Concurrency() == 0 (unbounded). window is the
// backpressure bound K: at any instant, at most K items have entered
// gen without having finished exec, so memory stays bounded however
// far the provider outruns the executors. window <= 0 resolves to
// DefaultPipelineWindow * e.Workers(), widened to 2*genWorkers when a
// larger explicit generation limit would otherwise be throttled by the
// window itself.
//
// Determinism: values land in index-addressed slots (exec receives the
// original index), so output is byte-identical to the serial loop
// regardless of schedule — the same contract as ForEach. gen and exec
// must be safe to call concurrently; error handling stays wherever the
// stages put it (the dispatcher's latch, unittest.Result's Err).
// Pipeline returns when every index has been through both stages. A
// panic in gen or exec stops it as one in fn stops ForEach, and once
// every goroutine has returned Pipeline re-raises it on the caller.
func Pipeline[T any](e *Engine, n int, genWorkers, window int, gen func(int) T, exec func(int, T)) {
	if n <= 0 {
		return
	}
	execWorkers := min(e.workers, n)
	if window <= 0 {
		window = DefaultPipelineWindow * execWorkers
		if genWorkers > 0 && window < 2*genWorkers {
			window = 2 * genWorkers
		}
	}
	window = min(window, n)
	// More generators than the window can never all hold tokens; the
	// excess would only park. Unbounded (<= 0) means window-many.
	if genWorkers <= 0 || genWorkers > window {
		genWorkers = window
	}

	type item struct {
		i int
		v T
	}
	// tokens is the backpressure ledger: a generator acquires a slot
	// before calling gen(i); the executor releases it after exec(i)
	// returns. Outstanding tokens == items generated-but-not-executed,
	// so that count can never exceed the window. ready is sized to the
	// window too, so a generator holding a token never blocks on the
	// hand-off — the token bound is the only throttle.
	tokens := make(chan struct{}, window)
	ready := make(chan item, window)
	var f fault
	// Indices 0..execWorkers-1 drain ready and the last runs the gen
	// stage: claims go out in order, so every drainer runs before a panic
	// can stop the claims. After a panic every token still comes back:
	// gen and exec are skipped, and the zero value is handed on.
	spread(execWorkers+1, execWorkers+1, &f, func(stage int) {
		if stage < execWorkers {
			for it := range ready {
				e.queueDepth.Add(-1)
				if !f.hit.Load() {
					e.execBusy.Add(1)
					f.run(func(i int) { exec(i, it.v) }, it.i)
					e.execBusy.Add(-1)
				}
				<-tokens
			}
			return
		}
		spread(n, genWorkers, &f, func(i int) {
			tokens <- struct{}{}
			e.genInflight.Add(1)
			var v T
			if !f.hit.Load() {
				f.run(func(i int) { v = gen(i) }, i)
			}
			e.genInflight.Add(-1)
			e.queueDepth.Add(1)
			ready <- item{i: i, v: v}
		})
		close(ready)
	})
	f.raise()
}
