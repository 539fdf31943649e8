package inference

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cloudeval/internal/dataset"
	"cloudeval/internal/llm"
	"cloudeval/internal/prompt"
	"cloudeval/internal/textmetrics"
)

// TestSimByteIdentical pins the Sim provider to the zoo: the provider
// layer must not perturb a single byte of the simulated responses,
// across samples, temperatures and shot counts.
func TestSimByteIdentical(t *testing.T) {
	sim := NewSim(llm.Models)
	problems := dataset.Generate()[:40]
	optsList := []llm.GenOptions{
		{},
		{Sample: 3, Temperature: 0.75},
		{Shots: 2},
	}
	for _, m := range []string{"gpt-4", "llama-2-7b-chat", "wizardcoder-15b-v1.0"} {
		model, _ := llm.ByName(m)
		for _, p := range problems {
			for _, opts := range optsList {
				resp, err := sim.Generate(context.Background(), Request{Model: m, Problem: p, Opts: opts})
				if err != nil {
					t.Fatal(err)
				}
				if want := model.Generate(p, opts); resp.Text != want {
					t.Fatalf("%s/%s %+v: sim text differs from llm.Generate", m, p.ID, opts)
				}
				if resp.Usage.Total() == 0 {
					t.Fatalf("%s/%s: no metered usage", m, p.ID)
				}
				if resp.Latency <= 0 {
					t.Fatalf("%s/%s: no latency", m, p.ID)
				}
			}
		}
	}
}

// TestPromptInfoMatchesBuild pins the prompt cache to the uncached
// definitions: for every corpus problem and shot count, the cached
// digest must equal prompt.Digest and the cached token count must
// equal EstimateTokens over the rendered prompt. Sim usage and every
// cache key flow through these values, so a mismatch here would skew
// Table 4 byte-identity.
func TestPromptInfoMatchesBuild(t *testing.T) {
	for _, p := range dataset.Generate()[:60] {
		for _, shots := range []int{0, 1, 3, 5} {
			info := promptInfoFor(p, shots)
			if want := prompt.Digest(p, shots); info.digest != want {
				t.Fatalf("%s shots=%d: cached digest differs from prompt.Digest", p.ID, shots)
			}
			if want := textmetrics.EstimateTokens(prompt.Build(p, shots)); info.tokens != want {
				t.Fatalf("%s shots=%d: cached tokens %d, want %d", p.ID, shots, info.tokens, want)
			}
		}
	}
}

// TestKeyForMatchesFmt pins the hand-assembled key preimage to the
// fmt-based formatting it replaced. Persisted store generations and
// recorded traces are addressed by this hash; one changed byte would
// orphan every existing artifact.
func TestKeyForMatchesFmt(t *testing.T) {
	problems := dataset.Generate()[:20]
	optsList := []llm.GenOptions{
		{},
		{Sample: 3, Temperature: 0.75},
		{Sample: -1, Temperature: 0.123456789, Shots: 2},
		{Shots: 3},
	}
	for _, p := range problems {
		for _, opts := range optsList {
			r := Request{Model: "gpt-4", Problem: p, Opts: opts}
			d := r.promptDigest()
			sample := opts.Sample
			if opts.Temperature == 0 {
				sample = 0
			}
			h := sha256.New()
			fmt.Fprintf(h, "gen|%s|%s|%s|%x|%d|%g|%d",
				r.Model, p.ID, p.Variant, d, sample, opts.Temperature, opts.Shots)
			var want Key
			h.Sum(want[:0])
			if got := r.keyFor(d); got != want {
				t.Fatalf("%s %+v: keyFor diverged from fmt preimage", p.ID, opts)
			}
		}
	}
}

func TestSimUnknownModel(t *testing.T) {
	sim := NewSim(llm.Models[:1])
	_, err := sim.Generate(context.Background(), Request{Model: "nope", Problem: dataset.Generate()[0]})
	if err == nil {
		t.Fatal("expected error for unknown model")
	}
}

// TestKeyDistinguishesProblemIdentity guards the cache-key soundness
// property the corpus demands: distinct problems (or variants) whose
// rendered prompts are byte-identical must not share a key, because
// the simulated channel keys its noise off the problem identity.
func TestKeyDistinguishesProblemIdentity(t *testing.T) {
	ps := dataset.Generate()
	a := ps[0]
	b := a
	b.ID = a.ID + "-clone"
	ra := Request{Model: "gpt-4", Problem: a}
	rb := Request{Model: "gpt-4", Problem: b}
	if ra.Prompt() != rb.Prompt() {
		t.Fatal("test setup: prompts should be identical")
	}
	if ra.Key() == rb.Key() {
		t.Fatal("identical prompts from distinct problems must not share a key")
	}
	if ra.Key() != (Request{Model: "gpt-4", Problem: a}).Key() {
		t.Fatal("key must be deterministic")
	}
	if ra.Key() == (Request{Model: "gpt-3.5", Problem: a}).Key() {
		t.Fatal("key must separate models")
	}
	if ra.Key() == (Request{Model: "gpt-4", Problem: a, Opts: llm.GenOptions{Shots: 1}}).Key() {
		t.Fatal("key must separate shot counts")
	}
}

// TestKeyNormalizesSampleAtTemperatureZero mirrors the zoo's stream
// pinning: at temperature 0 every sample index is the greedy answer,
// so retries must hit the cache.
func TestKeyNormalizesSampleAtTemperatureZero(t *testing.T) {
	p := dataset.Generate()[0]
	k0 := Request{Model: "gpt-4", Problem: p, Opts: llm.GenOptions{Sample: 0}}.Key()
	k3 := Request{Model: "gpt-4", Problem: p, Opts: llm.GenOptions{Sample: 3}}.Key()
	if k0 != k3 {
		t.Fatal("samples at temperature 0 must share a key")
	}
	w0 := Request{Model: "gpt-4", Problem: p, Opts: llm.GenOptions{Sample: 0, Temperature: 0.75}}.Key()
	w3 := Request{Model: "gpt-4", Problem: p, Opts: llm.GenOptions{Sample: 3, Temperature: 0.75}}.Key()
	if w0 == w3 {
		t.Fatal("samples at temperature > 0 must be distinct keys")
	}
}

// trackingProvider counts calls and the maximum concurrency it sees.
type trackingProvider struct {
	inner    Provider
	calls    atomic.Int64
	inflight atomic.Int64
	maxSeen  atomic.Int64
	block    chan struct{} // non-nil: Generate parks until closed
}

func (p *trackingProvider) Name() string { return "tracking" }
func (p *trackingProvider) Generate(ctx context.Context, req Request) (Response, error) {
	cur := p.inflight.Add(1)
	defer p.inflight.Add(-1)
	for {
		max := p.maxSeen.Load()
		if cur <= max || p.maxSeen.CompareAndSwap(max, cur) {
			break
		}
	}
	if p.block != nil {
		<-p.block
	}
	p.calls.Add(1)
	return p.inner.Generate(ctx, req)
}
func (p *trackingProvider) Close() error { return p.inner.Close() }

func TestDispatcherCachesAndSingleflights(t *testing.T) {
	p := dataset.Generate()[0]
	tp := &trackingProvider{inner: NewSim(llm.Models)}
	d := NewDispatcher(tp)
	req := Request{Model: "gpt-4", Problem: p}

	var wg sync.WaitGroup
	texts := make([]string, 16)
	for i := range texts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := d.Generate(context.Background(), req)
			if err != nil {
				t.Error(err)
				return
			}
			texts[i] = resp.Text
		}(i)
	}
	wg.Wait()
	for _, txt := range texts[1:] {
		if txt != texts[0] {
			t.Fatal("concurrent duplicates returned different texts")
		}
	}
	if got := tp.calls.Load(); got != 1 {
		t.Fatalf("16 concurrent identical requests hit the provider %d times, want 1", got)
	}
	st := d.Stats()
	if st.Generated != 1 || st.CacheHits != 15 {
		t.Fatalf("stats = %+v, want 1 generated / 15 cache hits", st)
	}
	if st.Usage.Total() == 0 {
		t.Fatal("no metered usage accumulated")
	}
}

func TestDispatcherConcurrencyLimit(t *testing.T) {
	const limit = 3
	problems := dataset.Generate()[:24]
	tp := &trackingProvider{inner: NewSim(llm.Models)}
	d := NewDispatcher(tp, WithConcurrency(limit), WithoutGenCache())
	reqs := make([]Request, len(problems))
	for i, p := range problems {
		reqs[i] = Request{Model: "gpt-4", Problem: p}
	}
	if _, err := generateAll(d, reqs); err != nil {
		t.Fatal(err)
	}
	if got := tp.maxSeen.Load(); got > limit {
		t.Fatalf("observed %d concurrent provider calls, limit %d", got, limit)
	}
	if got := tp.calls.Load(); got != int64(len(problems)) {
		t.Fatalf("%d provider calls, want %d (cache disabled)", got, len(problems))
	}
}

// generateAll calls Generate for every request at once, one goroutine
// each, and returns the responses in request order with the first
// error.
func generateAll(d *Dispatcher, reqs []Request) ([]Response, error) {
	out := make([]Response, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i], errs[i] = d.Generate(context.Background(), reqs[i])
		}()
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

func TestGenerateBatchOrderAndDedup(t *testing.T) {
	problems := dataset.Generate()[:8]
	tp := &trackingProvider{inner: NewSim(llm.Models)}
	d := NewDispatcher(tp)
	// Each request twice, all at once: the duplicates must dedupe
	// through the cache.
	var reqs []Request
	for _, p := range problems {
		reqs = append(reqs, Request{Model: "gpt-3.5", Problem: p})
	}
	reqs = append(reqs, reqs...)
	out, err := generateAll(d, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(reqs) {
		t.Fatalf("got %d responses, want %d", len(out), len(reqs))
	}
	m, _ := llm.ByName("gpt-3.5")
	for i, resp := range out {
		if want := m.Generate(reqs[i].Problem, reqs[i].Opts); resp.Text != want {
			t.Fatalf("slot %d: wrong response", i)
		}
	}
	if got := tp.calls.Load(); got != int64(len(problems)) {
		t.Fatalf("%d provider calls for %d distinct requests", got, len(problems))
	}
}

// failingProvider fails n times, then delegates.
type failingProvider struct {
	inner Provider
	fails atomic.Int64
}

func (p *failingProvider) Name() string { return "failing" }
func (p *failingProvider) Generate(ctx context.Context, req Request) (Response, error) {
	if p.fails.Add(-1) >= 0 {
		return Response{}, errors.New("transient API failure")
	}
	return p.inner.Generate(ctx, req)
}
func (p *failingProvider) Close() error { return p.inner.Close() }

func TestDispatcherNeverCachesErrors(t *testing.T) {
	p := dataset.Generate()[0]
	fp := &failingProvider{inner: NewSim(llm.Models)}
	fp.fails.Store(1)
	d := NewDispatcher(fp)
	req := Request{Model: "gpt-4", Problem: p}
	if _, err := d.Generate(context.Background(), req); err == nil {
		t.Fatal("first call should fail")
	}
	if d.Err() == nil {
		t.Fatal("error must latch into Err")
	}
	resp, err := d.Generate(context.Background(), req)
	if err != nil {
		t.Fatalf("retry after transient failure: %v", err)
	}
	if resp.Text == "" {
		t.Fatal("retry returned empty response")
	}
	if st := d.Stats(); st.Errors != 1 || st.Generated != 1 {
		t.Fatalf("stats = %+v, want 1 error / 1 generated", st)
	}
}

// floodProvider answers every request with a 4 KiB text shared by all
// responses and the request's sample number as its completion tokens:
// the cache charges each entry the text's length, so a flood of
// distinct samples overruns the budget without the test holding that
// much memory. It records the samples in the order it generated them.
type floodProvider struct {
	mu    sync.Mutex
	order []int
}

var floodText = strings.Repeat("x", 4096)

func (f *floodProvider) Name() string { return "flood" }
func (f *floodProvider) Close() error { return nil }
func (f *floodProvider) Generate(_ context.Context, req Request) (Response, error) {
	f.mu.Lock()
	f.order = append(f.order, req.Opts.Sample)
	f.mu.Unlock()
	return Response{Text: floodText, Usage: Usage{CompletionTokens: req.Opts.Sample}}, nil
}

// TestDispatcherCacheStaysUnderBudget floods one dispatcher with more
// distinct requests than its cache budget holds — a daemon sampling at
// temperature for days. Resident cost stays under the budget, every
// request still gets its own response, and an evicted key is served by
// the next tier down: the store when there is one, the provider when
// there is not.
func TestDispatcherCacheStaysUnderBudget(t *testing.T) {
	const samples = 24000 // x (4 KiB + overhead) = 1.5 budgets
	p := dataset.Generate()[0]
	req := func(i int) Request {
		return Request{Model: "gpt-4", Problem: p, Opts: llm.GenOptions{Sample: i, Temperature: 0.75}}
	}
	for _, withStore := range []bool{false, true} {
		t.Run(fmt.Sprintf("store=%v", withStore), func(t *testing.T) {
			prov := &floodProvider{}
			opts := []DispatchOption{WithConcurrency(0)}
			if withStore {
				opts = append(opts, WithGenStore(&memGenStore{m: map[Key]Response{}}))
			}
			d := NewDispatcher(prov, opts...)
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := w; i < samples; i += 8 {
						resp, err := d.Generate(context.Background(), req(i))
						if err != nil || resp.Usage.CompletionTokens != i {
							t.Errorf("sample %d got %+v, %v", i, resp.Usage, err)
							return
						}
						if i%500 == 0 {
							if st := d.Stats(); st.CacheBytes > cacheBudget {
								t.Errorf("cache holds %d bytes, budget %d", st.CacheBytes, cacheBudget)
							}
						}
					}
				}(w)
			}
			wg.Wait()
			st := d.Stats()
			if st.CacheBytes > cacheBudget || st.CacheEvictions == 0 || st.Generated != samples {
				t.Fatalf("after the flood: %+v, want bytes <= %d, evictions, %d generated", st, cacheBudget, samples)
			}
			if st.CacheEntries+int(st.CacheEvictions) != samples {
				t.Errorf("%d resident + %d evicted != %d samples", st.CacheEntries, st.CacheEvictions, samples)
			}

			// Eight racing writers leave no one key sure to be evicted, so
			// the probe is the first sample, in the order the provider
			// generated them, that the cache no longer holds. Asking for
			// a resident key is a hit and admits nothing.
			probe, before := -1, st
			for _, i := range prov.order {
				resp, err := d.Generate(context.Background(), req(i))
				if err != nil || resp.Text != floodText || resp.Usage.CompletionTokens != i {
					t.Fatalf("sample %d came back as %+v, %v", i, resp.Usage, err)
				}
				after := d.Stats()
				if after.CacheHits == before.CacheHits+1 {
					before = after
					continue
				}
				probe = i
				if withStore {
					if after.StoreHits != 1 || after.Generated != samples {
						t.Errorf("evicted key %d with a store: %+v, want 1 store hit and no new generation", i, after)
					}
				} else if after.Generated != samples+1 {
					t.Errorf("evicted key %d without a store: %d generated, want %d", i, after.Generated, samples+1)
				}
				before = after
				break
			}
			if probe < 0 {
				t.Fatalf("every sample is still cached after %d evictions", st.CacheEvictions)
			}
			d.Generate(context.Background(), req(probe))
			if got := d.Stats(); got.CacheHits != before.CacheHits+1 || got.Generated != before.Generated {
				t.Errorf("re-admitted key %d: %+v, want 1 more cache hit than %+v and no new generation", probe, got, before)
			}
		})
	}
}

func TestAnswerPostprocesses(t *testing.T) {
	p := dataset.Generate()[0]
	m, _ := llm.ByName("gpt-4") // wraps in markdown fences
	d := NewDispatcher(NewSim(llm.Models))
	if got, want := d.Answer(m, p, llm.GenOptions{}), llm.Postprocess(m.Generate(p, llm.GenOptions{})); got != want {
		t.Fatal("Answer must equal Postprocess(Generate)")
	}
}

// errProvider always fails.
type errProvider struct{}

func (errProvider) Name() string { return "err" }
func (errProvider) Generate(ctx context.Context, req Request) (Response, error) {
	return Response{}, fmt.Errorf("no backend")
}
func (errProvider) Close() error { return nil }

func TestAnswerOnErrorIsEmptyAndLatched(t *testing.T) {
	p := dataset.Generate()[0]
	m, _ := llm.ByName("gpt-4")
	d := NewDispatcher(errProvider{})
	if got := d.Answer(m, p, llm.GenOptions{}); got != "" {
		t.Fatalf("errored Answer = %q, want empty", got)
	}
	if d.Err() == nil {
		t.Fatal("error must latch")
	}
}

// TestCancelledGenerateNotLatched: a generation the caller cancelled
// fails, but it is the caller's failure, not the provider's. It must
// not bump Errors or latch into Err, where it would fail every
// campaign running beside it on the same dispatcher.
func TestCancelledGenerateNotLatched(t *testing.T) {
	d := NewDispatcher(NewSim(llm.Models))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := d.Generate(ctx, Request{Model: "gpt-4", Problem: dataset.Generate()[0]}); err == nil {
		t.Fatal("a cancelled generation should fail")
	}
	if n := d.Stats().Errors; n != 0 {
		t.Errorf("Errors = %d, want 0", n)
	}
	if err := d.Err(); err != nil {
		t.Errorf("Err() = %v, want nil", err)
	}
}
