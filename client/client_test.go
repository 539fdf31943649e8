package client_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"cloudeval/client"
	"cloudeval/internal/core"
	"cloudeval/internal/dataset"
	"cloudeval/internal/engine"
	"cloudeval/internal/inference"
	"cloudeval/internal/llm"
	"cloudeval/internal/score"
	"cloudeval/internal/server"
	"cloudeval/internal/yamlmatch"
)

func testServer(t *testing.T, cfg server.Config) (*httptest.Server, *core.Benchmark) {
	t.Helper()
	models := llm.Models[:2]
	bench := core.New(score.NewEvaluator(engine.New(), inference.NewDispatcher(inference.NewSim(models))), dataset.Generate()[:6], models)
	ts := httptest.NewServer(server.NewWithConfig(bench, t.TempDir(), cfg).Handler())
	t.Cleanup(ts.Close)
	return ts, bench
}

// TestClientRoundTrips drives every endpoint through the typed client
// against a real server.
func TestClientRoundTrips(t *testing.T) {
	ctx := context.Background()
	ts, bench := testServer(t, server.Config{})
	c := client.New(ts.URL)

	if err := c.Healthz(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}

	p := bench.Originals[0]
	res, err := c.Eval(ctx, client.EvalRequest{Problem: p.ID, Answer: yamlmatch.StripLabels(p.ReferenceYAML)})
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	if res.Problem != p.ID || res.Scores["unit_test"] != 1 {
		t.Errorf("eval response = %+v", res)
	}

	lb, err := c.Leaderboard(ctx)
	if err != nil || lb != bench.Table4() {
		t.Errorf("leaderboard mismatch (err %v)", err)
	}
	fam, err := c.FamilyLeaderboard(ctx)
	if err != nil || fam != bench.FamilyLeaderboard() {
		t.Errorf("family leaderboard mismatch (err %v)", err)
	}

	start, err := c.StartCampaign(ctx, []string{"table2"})
	if err != nil {
		t.Fatalf("start campaign: %v", err)
	}
	waitCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	done, err := c.WaitCampaign(waitCtx, start.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("wait campaign: %v", err)
	}
	if done.State != "done" || done.Outputs["table2"] == "" {
		t.Errorf("campaign final status = %+v", done)
	}

	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if stats.Provider != "sim" || stats.Routes["POST /v1/eval"].Requests == 0 {
		t.Errorf("stats = %+v", stats)
	}
}

// TestClientDecodesErrorEnvelope: non-2xx responses surface as
// *APIError with the envelope code, message, request ID and (for
// 429s) Retry-After.
func TestClientDecodesErrorEnvelope(t *testing.T) {
	ctx := context.Background()
	ts, _ := testServer(t, server.Config{TenantRate: 0.001, TenantBurst: 1})
	c := client.New(ts.URL, client.WithTenant("bursty"))

	_, err := c.Eval(ctx, client.EvalRequest{Problem: "nope", Answer: "x"})
	ae, ok := err.(*client.APIError)
	if !ok {
		t.Fatalf("error %v (%T), want *client.APIError", err, err)
	}
	if ae.Status != http.StatusNotFound || ae.Code != "not_found" || ae.RequestID == "" {
		t.Errorf("APIError = %+v", ae)
	}

	// The burst of 1 is spent; the next POST is rate-limited with a
	// Retry-After the client exposes as a duration.
	_, err = c.Eval(ctx, client.EvalRequest{Problem: "nope", Answer: "x"})
	if !client.IsRateLimited(err) {
		t.Fatalf("second request error = %v, want rate-limited APIError", err)
	}
	if ae := err.(*client.APIError); ae.RetryAfter <= 0 || ae.Code != "rate_limited" {
		t.Errorf("rate-limited APIError = %+v", ae)
	}
}

// TestClientTenantScoping: two clients differing only in tenant get
// tenant-scoped campaign IDs for the same experiment set.
func TestClientTenantScoping(t *testing.T) {
	ctx := context.Background()
	ts, _ := testServer(t, server.Config{})
	a := client.New(ts.URL, client.WithTenant("team-a"))
	b := client.New(ts.URL, client.WithTenant("team-b"))

	sa, err := a.StartCampaign(ctx, []string{"table2"})
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.StartCampaign(ctx, []string{"table2"})
	if err != nil {
		t.Fatal(err)
	}
	if sa.ID == sb.ID {
		t.Errorf("tenants team-a and team-b share campaign ID %s", sa.ID)
	}
	// Both campaigns checkpoint under the test's temporary directory
	// until they finish; returning earlier races its removal.
	if _, err := a.WaitCampaign(ctx, sa.ID, 0); err != nil {
		t.Error(err)
	}
	if _, err := b.WaitCampaign(ctx, sb.ID, 0); err != nil {
		t.Error(err)
	}
}
