package inference

import (
	"context"
	"encoding/binary"
	"runtime"
	"sync"
	"sync/atomic"

	"cloudeval/internal/dataset"
	"cloudeval/internal/llm"
	"cloudeval/internal/memo"
)

// GenStore is the persistent second cache tier under the dispatcher's
// in-memory map, implemented by store.Store as a generation record
// kind alongside unit-test records. Like engine.CacheStore, Put is
// advisory: a failed append degrades to a smaller cache, never fails
// the generation.
type GenStore interface {
	GetGen(key Key) (Response, bool)
	PutGen(key Key, resp Response)
}

// Stats counts dispatcher activity since construction.
type Stats struct {
	// Generated is the number of live provider calls; CacheHits the
	// number served from memory and StoreHits from the persistent
	// store. Errors counts failed generations (also latched into Err).
	Generated int64
	CacheHits int64
	StoreHits int64
	Errors    int64
	// CacheEntries, CacheBytes and CacheEvictions describe the
	// in-memory generation cache: how many responses it holds, what
	// they are charged against cacheBudget, and how many it has
	// dropped to stay under it.
	CacheEntries   int
	CacheBytes     int64
	CacheEvictions int64
	// Usage accumulates the metered tokens of live generations only —
	// what a real API would actually bill (cache and store hits are
	// free), priced by cost.MeteredCost.
	Usage Usage
}

// Dispatcher is the batched async front-end over a Provider: a
// per-provider concurrency limit, a content-addressed generation
// cache with singleflight (mirroring engine's execution cache, so
// re-campaigns regenerate nothing), an optional persistent tier, and
// metered usage accounting. The zero value is not usable; construct
// with NewDispatcher.
type Dispatcher struct {
	prov    Provider
	sem     chan struct{}
	noCache bool
	store   GenStore

	// cache is the sharded singleflight generation cache: keys hash
	// by digest prefix into GOMAXPROCS-scaled shards, so a batched
	// campaign's hit traffic never serializes on one mutex the way
	// the original single-lock map did. It holds at most cacheBudget;
	// an evicted response is re-read from the store or re-generated.
	cache *memo.LRU[Key, Response]

	generated      atomic.Int64
	cacheHits      atomic.Int64
	storeHits      atomic.Int64
	errors         atomic.Int64
	promptToks     atomic.Int64
	completionToks atomic.Int64
	errOnce        sync.Mutex
	firstGenerr    error
}

// cacheBudget caps the generation cache: a long-lived daemon samples at
// nonzero temperature and takes caller-chosen options, so the cache
// cannot be sized by the corpus. A full Table 4 campaign keeps 13,195
// responses whose Text totals 4.4 MB — 7.8 MB as charged by
// responseCost — so 64 MiB is about eight campaigns' worth and no
// benchmark workload evicts (engine's TestTable4CampaignNeverEvicts
// pins the figure).
const cacheBudget = 64 << 20

func responseCost(resp Response) int64 { return memo.EntryOverhead + int64(len(resp.Text)) }

// DispatchOption configures a Dispatcher.
type DispatchOption func(*Dispatcher)

// WithConcurrency caps live in-flight provider calls. n <= 0 removes
// the cap entirely (no semaphore on the live path) — the right setting
// for providers with no rate limit to respect, like the sim zoo or a
// replay trace. When the option is not given, NewDispatcher picks the
// provider's default (DefaultConcurrency).
func WithConcurrency(n int) DispatchOption {
	return func(d *Dispatcher) {
		if n > 0 {
			d.sem = make(chan struct{}, n)
		} else {
			d.sem = nil
		}
	}
}

// HTTPDefaultConcurrency is the default live-call limit for the HTTP
// provider: wide enough to hide hundreds of milliseconds of round-trip
// latency behind a CPU-sized execution pool, narrow enough not to trip
// a typical OpenAI-compatible gateway's per-key rate limiting.
const HTTPDefaultConcurrency = 64

// DefaultConcurrency is the in-flight limit a dispatcher adopts for
// prov when WithConcurrency is not given: 0 (unbounded) for the sim
// zoo and replay traces, whose "latency" is metadata rather than wall
// clock, so throttling them only starves the pipeline;
// HTTPDefaultConcurrency for live endpoints; a recording provider
// inherits the default of the provider it wraps. Anything unknown gets
// GOMAXPROCS — the historical default, safe for any custom provider.
func DefaultConcurrency(prov Provider) int {
	switch p := prov.(type) {
	case *Sim, *Replay:
		return 0
	case *HTTP:
		return HTTPDefaultConcurrency
	case *Record:
		return DefaultConcurrency(p.inner)
	case *Delay:
		// Latency injection doesn't change how many calls the wrapped
		// backend tolerates — a delayed sim stays unbounded, a delayed
		// HTTP endpoint keeps its live-call limit.
		return DefaultConcurrency(p.inner)
	default:
		return runtime.GOMAXPROCS(0)
	}
}

// WithGenStore attaches a persistent generation cache (store.Store):
// on an in-memory miss the dispatcher consults the store before the
// provider, and records every live generation back. A warm store lets
// a repeated campaign issue zero provider calls.
func WithGenStore(s GenStore) DispatchOption { return func(d *Dispatcher) { d.store = s } }

// WithoutGenCache disables memoization and the persistent tier,
// forcing every request to the provider (benchmarking the raw
// dispatch path).
func WithoutGenCache() DispatchOption { return func(d *Dispatcher) { d.noCache = true } }

// NewDispatcher builds a dispatcher over prov. The live-call limit
// defaults per provider (DefaultConcurrency); WithConcurrency
// overrides it.
func NewDispatcher(prov Provider, opts ...DispatchOption) *Dispatcher {
	d := &Dispatcher{
		prov:  prov,
		cache: memo.NewLRU[Key, Response](keyShard, cacheBudget),
	}
	if n := DefaultConcurrency(prov); n > 0 {
		d.sem = make(chan struct{}, n)
	}
	for _, o := range opts {
		o(d)
	}
	return d
}

var (
	defaultOnce sync.Once
	defaultDisp *Dispatcher
)

// Default returns the process-wide dispatcher: the sim provider over
// the full Table 4 zoo with a shared generation cache. Nothing below
// the top reaches for it — every generating entry point takes its
// dispatcher as an argument; core.New is where this default is chosen.
// It serves the zoo's models by name and no others.
func Default() *Dispatcher {
	defaultOnce.Do(func() { defaultDisp = NewDispatcher(NewSim(llm.Models)) })
	return defaultDisp
}

// Provider returns the dispatcher's provider.
func (d *Dispatcher) Provider() Provider { return d.prov }

// Concurrency reports the live-call limit; 0 means unbounded (no
// semaphore on the live path). Campaign paths size their generation
// stage from this — it is the dispatcher's statement of how much IO
// parallelism the provider can absorb.
func (d *Dispatcher) Concurrency() int { return cap(d.sem) }

// Stats snapshots the dispatcher counters.
func (d *Dispatcher) Stats() Stats {
	cs := d.cache.Stats()
	return Stats{
		Generated:      d.generated.Load(),
		CacheHits:      d.cacheHits.Load(),
		StoreHits:      d.storeHits.Load(),
		Errors:         d.errors.Load(),
		CacheEntries:   cs.Entries,
		CacheBytes:     cs.Bytes,
		CacheEvictions: cs.Evictions,
		Usage: Usage{
			PromptTokens:     int(d.promptToks.Load()),
			CompletionTokens: int(d.completionToks.Load()),
		},
	}
}

// Err reports the first generation failure, if any. Campaign paths
// (score, analysis, core) render an errored generation as an empty
// answer so the run completes; callers check Err afterwards, the same
// latching contract as store.Store.
func (d *Dispatcher) Err() error {
	d.errOnce.Lock()
	defer d.errOnce.Unlock()
	return d.firstGenerr
}

func (d *Dispatcher) latch(err error) {
	d.errors.Add(1)
	d.errOnce.Lock()
	if d.firstGenerr == nil {
		d.firstGenerr = err
	}
	d.errOnce.Unlock()
}

// Close releases the underlying provider.
func (d *Dispatcher) Close() error { return d.prov.Close() }

// Generate produces one response through the cache and the
// concurrency limit. Concurrent calls with the same key collapse into
// one provider call; errors are returned, latched into Err, and never
// cached, so a transient API failure is retried on the next request.
func (d *Dispatcher) Generate(ctx context.Context, req Request) (Response, error) {
	resp, err := d.generate(ctx, req)
	if err != nil {
		d.latch(err)
	}
	return resp, err
}

// keyShard maps a content-addressed key to a shard by its leading
// bytes — uniformly distributed by construction.
func keyShard(k Key) uint32 { return binary.LittleEndian.Uint32(k[:4]) }

func (d *Dispatcher) generate(ctx context.Context, req Request) (Response, error) {
	if d.noCache {
		return d.live(ctx, req)
	}
	key := req.Key()
	fromStore := false
	// The singleflight error path preserves the old contract: waiters
	// parked on a failed generation share its error, but the entry is
	// never cached — future requests re-generate.
	resp, err, hit := d.cache.Do(key, func() (Response, int64, error) {
		// Second tier: a generation persisted by an earlier process
		// (or a CI cache restore) short-circuits the provider entirely.
		if d.store != nil {
			if resp, ok := d.store.GetGen(key); ok {
				fromStore = true
				// A recording provider never sees store-served
				// generations; hand them over anyway, or -record over a
				// warm -store would write an incomplete trace.
				if ob, ok := d.prov.(traceObserver); ok {
					ob.observe(req, resp)
				}
				return resp, responseCost(resp), nil
			}
		}
		resp, err := d.live(ctx, req)
		return resp, responseCost(resp), err
	})
	switch {
	case hit:
		if err == nil {
			d.cacheHits.Add(1)
		}
	case fromStore:
		d.storeHits.Add(1)
	case err == nil:
		if d.store != nil {
			d.store.PutGen(key, resp)
		}
	}
	return resp, err
}

// live performs one provider call under the concurrency limit (no
// limit when the dispatcher is unbounded).
func (d *Dispatcher) live(ctx context.Context, req Request) (Response, error) {
	if d.sem != nil {
		select {
		case d.sem <- struct{}{}:
		case <-ctx.Done():
			return Response{}, ctx.Err()
		}
		defer func() { <-d.sem }()
	}
	resp, err := d.prov.Generate(ctx, req)
	if err != nil {
		return resp, err
	}
	d.generated.Add(1)
	d.promptToks.Add(int64(resp.Usage.PromptTokens))
	d.completionToks.Add(int64(resp.Usage.CompletionTokens))
	return resp, nil
}

// GenerateBatch fans a batch of requests out asynchronously under the
// concurrency limit and returns responses in request order. The batch
// always drains; the first error is returned (and latched), with the
// failed slots left zero — the same poisoned-batch contract as
// engine.Run. Work is pulled by a bounded worker pool rather than one
// goroutine per request: extra goroutines beyond the live-call limit
// only ever park on the semaphore or on in-flight cache entries, so a
// 256-request batch paid 256 goroutine spawns for at most
// Concurrency() of actual parallelism.
func (d *Dispatcher) GenerateBatch(ctx context.Context, reqs []Request) ([]Response, error) {
	out := make([]Response, len(reqs))
	errs := make([]error, len(reqs))
	// An unbounded dispatcher (Concurrency() == 0) still gets a
	// GOMAXPROCS-sized pool here: a batch over the sim or a replay
	// trace is CPU-bound, so more goroutines would only add scheduler
	// churn. Latency-hiding fan-out belongs to engine.Pipeline, which
	// sizes its generation stage from Concurrency() directly.
	workers := max(cap(d.sem), runtime.GOMAXPROCS(0))
	if workers > len(reqs) {
		workers = len(reqs)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				out[i], errs[i] = d.Generate(ctx, reqs[i])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// Answer is the shared generate-and-postprocess path every campaign
// uses: generate (model, problem, opts) and extract clean YAML via
// the §3.1 policies. A provider failure yields an empty answer (which
// scores zero) and latches into Err, so a campaign completes
// deterministically instead of aborting mid-table; callers that need
// hard failures check Err after the run.
func (d *Dispatcher) Answer(m llm.Model, p dataset.Problem, opts llm.GenOptions) string {
	resp, err := d.Generate(context.Background(), Request{Model: m.Name, Problem: p, Opts: opts})
	if err != nil {
		return ""
	}
	return llm.Postprocess(resp.Text)
}
