package server_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"cloudeval/client"
	"cloudeval/internal/core"
	"cloudeval/internal/dataset"
	"cloudeval/internal/engine"
	"cloudeval/internal/inference"
	"cloudeval/internal/llm"
	"cloudeval/internal/score"
	"cloudeval/internal/server"
)

// TestTenantIsolationCampaigns is the tenancy acceptance test: two
// tenants run campaigns over the same experiment IDs concurrently, and
// nothing bleeds — campaign IDs differ, checkpoints land under
// separate per-tenant directories, one tenant cannot poll the other's
// campaign, and each tenant's leaderboard stays byte-identical to
// core.Benchmark.
func TestTenantIsolationCampaigns(t *testing.T) {
	ctx := context.Background()
	dataDir := t.TempDir()
	bench := smallBench(engine.New())
	ts := httptest.NewServer(server.NewWithConfig(bench, dataDir, server.Config{}).Handler())
	defer ts.Close()

	defTenant := client.New(ts.URL) // default tenant
	beta := client.New(ts.URL, client.WithTenant("beta"))

	ids := []string{"table2", "table4"}
	var wg sync.WaitGroup
	var defStart, betaStart client.CampaignStatus
	var defErr, betaErr error
	wg.Add(2)
	go func() { defer wg.Done(); defStart, defErr = defTenant.StartCampaign(ctx, ids) }()
	go func() { defer wg.Done(); betaStart, betaErr = beta.StartCampaign(ctx, ids) }()
	wg.Wait()
	if defErr != nil || betaErr != nil {
		t.Fatalf("campaign starts: %v / %v", defErr, betaErr)
	}
	if defStart.ID == betaStart.ID {
		t.Fatalf("tenants share campaign ID %s for the same experiment set", defStart.ID)
	}

	defDone := waitCampaignDone(t, defTenant, defStart.ID)
	betaDone := waitCampaignDone(t, beta, betaStart.ID)
	if defDone.Outputs["table4"] != betaDone.Outputs["table4"] {
		t.Error("the same deterministic experiment rendered differently per tenant")
	}

	// Checkpoints: the default tenant keeps the historical layout, the
	// named tenant is rooted under tenants/<name>/.
	if _, err := os.Stat(filepath.Join(dataDir, "campaigns", defStart.ID, "table4.txt")); err != nil {
		t.Errorf("default-tenant checkpoint not in legacy layout: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dataDir, "tenants", "beta", "campaigns", betaStart.ID, "table4.txt")); err != nil {
		t.Errorf("beta-tenant checkpoint not under tenants/beta: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dataDir, "campaigns", betaStart.ID)); !os.IsNotExist(err) {
		t.Errorf("beta campaign leaked into the default tenant's checkpoint root (err %v)", err)
	}

	// Cross-tenant polling 404s, in memory and from disk.
	_, err := beta.Campaign(ctx, defStart.ID)
	apiErr(t, err, 404, "not_found")
	_, err = defTenant.Campaign(ctx, betaStart.ID)
	apiErr(t, err, 404, "not_found")
	// An escaped path segment is one {id}; unescaped, it must not walk
	// out of the default tenant's checkpoint root into beta's.
	resp, err := http.Get(ts.URL + "/v1/campaign/..%2Ftenants%2Fbeta%2Fcampaigns%2F" + betaStart.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("campaign ID escaping the tenant's checkpoint root = %d, want 404", resp.StatusCode)
	}

	// Both tenants' leaderboards are byte-identical to core.
	want := bench.Table4()
	for name, c := range map[string]*client.Client{"default": defTenant, "beta": beta} {
		if got, err := c.Leaderboard(ctx); err != nil || got != want {
			t.Errorf("tenant %s leaderboard differs from core.Table4 (err %v)", name, err)
		}
	}
}

// TestRateLimit429 pins the admission-control contract: a tenant that
// saturates its token bucket gets 429 + Retry-After (code
// rate_limited) while a second tenant's requests keep succeeding.
func TestRateLimit429(t *testing.T) {
	ctx := context.Background()
	bench := smallBench(engine.New())
	// A glacial refill: the two-token burst is all a tenant gets within
	// this test's lifetime, so the third request deterministically 429s.
	cfg := server.Config{TenantRate: 0.001, TenantBurst: 2}
	ts := httptest.NewServer(server.NewWithConfig(bench, t.TempDir(), cfg).Handler())
	defer ts.Close()

	hot := client.New(ts.URL, client.WithTenant("hot"))
	calm := client.New(ts.URL, client.WithTenant("calm"))
	req := client.EvalRequest{Problem: bench.Originals[0].ID, Answer: "x"}

	for i := 0; i < 2; i++ {
		if _, err := hot.Eval(ctx, req); err != nil {
			t.Fatalf("eval %d within burst: %v", i, err)
		}
	}
	_, err := hot.Eval(ctx, req)
	ae := apiErr(t, err, http.StatusTooManyRequests, "rate_limited")
	if ae.RetryAfter <= 0 {
		t.Errorf("429 without a Retry-After hint: %+v", ae)
	}
	if !client.IsRateLimited(err) {
		t.Error("IsRateLimited(err) = false for a 429")
	}
	// The saturated tenant's campaign POSTs are limited too.
	_, err = hot.StartCampaign(ctx, []string{"table2"})
	apiErr(t, err, http.StatusTooManyRequests, "rate_limited")

	// The second tenant's bucket is its own: still admitted.
	if _, err := calm.Eval(ctx, req); err != nil {
		t.Fatalf("calm tenant eval during hot tenant saturation: %v", err)
	}
	start, err := calm.StartCampaign(ctx, []string{"table2"})
	if err != nil {
		t.Fatalf("calm tenant campaign during hot tenant saturation: %v", err)
	}
	waitCampaignDone(t, calm, start.ID)
}

// gatedProvider parks every generation until release is closed.
type gatedProvider struct {
	release chan struct{}
	inner   inference.Provider
}

func (g gatedProvider) Name() string { return "gated" }
func (g gatedProvider) Generate(ctx context.Context, req inference.Request) (inference.Response, error) {
	<-g.release
	return g.inner.Generate(ctx, req)
}
func (g gatedProvider) Close() error { return nil }

// TestCampaignQueueBounded pins the bounded-queue half of admission
// control: with a one-slot campaign queue occupied by a campaign
// parked on its provider, a second campaign gets 429 + Retry-After
// (code campaign_queue_full) instead of an unbounded goroutine — and
// is admitted normally once the first campaign drains.
func TestCampaignQueueBounded(t *testing.T) {
	ctx := context.Background()
	release := make(chan struct{})
	models := llm.Models[:2]
	disp := inference.NewDispatcher(gatedProvider{release: release, inner: inference.NewSim(models)})
	bench := core.New(score.NewEvaluator(engine.New(), disp), dataset.Generate()[:4], models)
	cfg := server.Config{CampaignQueue: 1}
	ts := httptest.NewServer(server.NewWithConfig(bench, t.TempDir(), cfg).Handler())
	defer ts.Close()
	c := client.New(ts.URL)

	// Campaign 1 blocks generating table4, holding the queue's only slot.
	first, err := c.StartCampaign(ctx, []string{"table4"})
	if err != nil {
		t.Fatal(err)
	}

	// Campaign 2 (a different experiment set, so a fresh campaign) is
	// refused with backpressure, not queued without bound.
	_, err = c.StartCampaign(ctx, []string{"table2"})
	ae := apiErr(t, err, http.StatusTooManyRequests, "campaign_queue_full")
	if ae.RetryAfter <= 0 {
		t.Errorf("queue-full 429 without a Retry-After hint: %+v", ae)
	}

	// Re-posting the *same* campaign coalesces onto the running one —
	// no new queue slot, no 429.
	again, err := c.StartCampaign(ctx, []string{"table4"})
	if err != nil || again.ID != first.ID {
		t.Fatalf("re-post of the running campaign = %+v, %v; want coalesce onto %s", again, err, first.ID)
	}

	close(release)
	waitCampaignDone(t, c, first.ID)

	// The slot freed: the refused campaign is admitted now.
	second, err := c.StartCampaign(ctx, []string{"table2"})
	if err != nil {
		t.Fatalf("campaign after queue drain: %v", err)
	}
	waitCampaignDone(t, c, second.ID)
}

// TestInvalidTenantRejected: tenant names that could escape the
// checkpoint root (or are otherwise malformed) are 400s with their own
// envelope code, from both the header and the query parameter.
func TestInvalidTenantRejected(t *testing.T) {
	ctx := context.Background()
	bench := smallBench(engine.New())
	ts := newTestServer(t, bench)

	for _, bad := range []string{"../evil", "a/b", "dots.not.allowed", "-leading", "x y"} {
		c := client.New(ts.URL, client.WithTenant(bad))
		_, err := c.Leaderboard(ctx)
		apiErr(t, err, 400, "invalid_tenant")
	}

	// The ?tenant= form is validated identically.
	resp, err := http.Get(ts.URL + "/v1/leaderboard?tenant=..%2Fevil")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("query-parameter tenant escape = %d, want 400", resp.StatusCode)
	}

	// A valid ?tenant= is accepted and scopes like the header.
	resp, err = http.Get(ts.URL + "/v1/leaderboard?tenant=query-tenant")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("valid query-parameter tenant = %d, want 200", resp.StatusCode)
	}
}

// TestRequestIDMiddleware: every response carries X-Request-ID — the
// caller's echoed when plausible, a generated one otherwise.
func TestRequestIDMiddleware(t *testing.T) {
	bench := smallBench(engine.New())
	ts := newTestServer(t, bench)

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "my-trace-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "my-trace-42" {
		t.Errorf("caller request ID not echoed: got %q", got)
	}

	// No ID supplied: one is generated, and consecutive requests get
	// distinct ones.
	ids := map[string]bool{}
	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		id := resp.Header.Get("X-Request-ID")
		if id == "" {
			t.Fatal("no X-Request-ID generated")
		}
		if ids[id] {
			t.Fatalf("duplicate generated request ID %q", id)
		}
		ids[id] = true
	}
}

// TestRouteMetricsInStats: /v1/stats surfaces per-route request,
// error and latency counters fed by the middleware.
func TestRouteMetricsInStats(t *testing.T) {
	ctx := context.Background()
	bench := smallBench(engine.New())
	c := newTestClient(t, bench)

	req := client.EvalRequest{Problem: bench.Originals[0].ID, Answer: "x"}
	for i := 0; i < 3; i++ {
		if _, err := c.Eval(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	// One 404 to feed the error counter.
	if _, err := c.Eval(ctx, client.EvalRequest{Problem: "nope", Answer: "x"}); err == nil {
		t.Fatal("eval of unknown problem succeeded")
	}

	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	evalStats, ok := stats.Routes["POST /v1/eval"]
	if !ok {
		t.Fatalf("stats carries no POST /v1/eval route entry: %+v", stats.Routes)
	}
	if evalStats.Requests != 4 || evalStats.Errors != 1 {
		t.Errorf("eval route = %d requests / %d errors, want 4 / 1", evalStats.Requests, evalStats.Errors)
	}
	if evalStats.AvgMs < 0 {
		t.Errorf("negative average latency %v", evalStats.AvgMs)
	}
	// tenants counts tenants holding a campaign in memory; evals leave
	// no per-tenant state behind.
	if stats.Tenants != 0 {
		t.Errorf("stats reports %d tenants after evals alone, want 0", stats.Tenants)
	}
	start, err := c.StartCampaign(ctx, []string{"table2"})
	if err != nil {
		t.Fatal(err)
	}
	waitCampaignDone(t, c, start.ID)
	if stats, err = c.Stats(ctx); err != nil || stats.Tenants != 1 {
		t.Errorf("stats after one campaign = %d tenants (err %v), want 1", stats.Tenants, err)
	}
}
