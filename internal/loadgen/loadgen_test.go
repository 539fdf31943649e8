package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
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
)

func benchAndServer(t *testing.T, cfg server.Config) (*core.Benchmark, *httptest.Server) {
	t.Helper()
	models := llm.Models[:2]
	bench := core.New(score.NewEvaluator(engine.New(), inference.NewDispatcher(inference.NewSim(models))), dataset.Generate()[:6], models)
	ts := httptest.NewServer(server.NewWithConfig(bench, t.TempDir(), cfg).Handler())
	t.Cleanup(ts.Close)
	return bench, ts
}

// TestSynthesizeDeterministic: the same seed yields the same trace, a
// different seed a different one, and every op respects the mix.
func TestSynthesizeDeterministic(t *testing.T) {
	problems := dataset.Generate()[:6]
	models := []string{"gpt-4", "llama-2-7b"}
	a, err := Synthesize(problems, models, []string{"t1", "t2"}, 200, 42, DefaultMix())
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Synthesize(problems, models, []string{"t1", "t2"}, 200, 42, DefaultMix())
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed synthesized different traces")
	}
	c, _ := Synthesize(problems, models, []string{"t1", "t2"}, 200, 43, DefaultMix())
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds synthesized identical traces")
	}

	counts := map[string]int{}
	for i, op := range a {
		counts[op.Op]++
		if want := []string{"t1", "t2"}[i%2]; op.Tenant != want {
			t.Fatalf("op %d tenant = %q, want %q", i, op.Tenant, want)
		}
		switch op.Op {
		case "eval":
			if op.Problem == "" || op.Answer == "" {
				t.Fatalf("eval op missing problem/answer: %+v", op)
			}
		case "eval_model":
			if op.Problem == "" || op.Model == "" {
				t.Fatalf("eval_model op missing problem/model: %+v", op)
			}
		case "campaign":
			if len(op.Experiments) == 0 {
				t.Fatalf("campaign op without experiments: %+v", op)
			}
		}
	}
	// With the default eval-heavy mix over 200 ops, evals dominate,
	// and both leaderboards are requested.
	if counts["eval"] == 0 || counts["stats"] == 0 || counts["leaderboard"] == 0 || counts["families"] == 0 {
		t.Errorf("mix not represented: %v", counts)
	}
}

// TestFamiliesSplitLeaderboard: Families takes two of the five weights
// leaderboard had, right after it, so a seed draws the same stream as
// before and only some leaderboard ops become families ops.
func TestFamiliesSplitLeaderboard(t *testing.T) {
	problems := dataset.Generate()[:6]
	models := []string{"gpt-4", "llama-2-7b"}
	now, _ := Synthesize(problems, models, nil, 400, 42, DefaultMix())
	before, _ := Synthesize(problems, models, nil, 400, 42, Mix{Eval: 70, EvalModel: 10, Leaderboard: 5, Stats: 10, Campaign: 5})
	families := 0
	for i := range now {
		if now[i].Op == "families" && before[i].Op == "leaderboard" {
			families++
			now[i].Op = "leaderboard"
		}
		if !reflect.DeepEqual(now[i], before[i]) {
			t.Fatalf("op %d = %+v, was %+v", i, now[i], before[i])
		}
	}
	if families == 0 {
		t.Fatal("no leaderboard op became families")
	}
}

// TestSynthesizeRejectsBadInputs covers the guard rails.
func TestSynthesizeRejectsBadInputs(t *testing.T) {
	problems := dataset.Generate()[:2]
	if _, err := Synthesize(nil, nil, nil, 5, 1, DefaultMix()); err == nil {
		t.Error("empty corpus accepted")
	}
	if _, err := Synthesize(problems, nil, nil, 5, 1, Mix{}); err == nil {
		t.Error("zero-weight mix accepted")
	}
	if _, err := Synthesize(problems, nil, nil, 5, 1, Mix{EvalModel: 1}); err == nil {
		t.Error("eval_model weight without models accepted")
	}
}

// TestTraceRoundTrip: WriteTrace then ReadTrace is the identity.
func TestTraceRoundTrip(t *testing.T) {
	ops, err := Synthesize(dataset.Generate()[:4], []string{"gpt-4"}, nil, 50, 7, DefaultMix())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, ops); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ops, got) {
		t.Fatal("trace round-trip mutated ops")
	}

	// LoadTrace reads the same bytes from disk.
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	var buf2 bytes.Buffer
	if err := WriteTrace(&buf2, ops); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf2.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	fromDisk, err := LoadTrace(path)
	if err != nil || !reflect.DeepEqual(ops, fromDisk) {
		t.Fatalf("LoadTrace mismatch (err %v)", err)
	}

	// Malformed traces are rejected with the record number.
	if _, err := ReadTrace(bytes.NewBufferString("{\"op\":\"eval\"}\n{not json")); err == nil {
		t.Error("malformed trace accepted")
	}
	if _, err := ReadTrace(bytes.NewBufferString("{\"tenant\":\"x\"}\n")); err == nil {
		t.Error("trace record without op accepted")
	}
}

// waitCampaigns blocks until every campaign the trace starts has
// finished. The load generator only starts them; one still writing
// checkpoints when the test returns races the removal of the server's
// data directory. Starting a campaign again is how to learn its ID: the
// ID is a function of tenant and experiments, and the daemon answers
// with the campaign it already has.
func waitCampaigns(t *testing.T, baseURL string, ops []Op) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, op := range ops {
		if op.Op != "campaign" {
			continue
		}
		c := client.New(baseURL, client.WithTenant(op.Tenant))
		st, err := c.StartCampaign(ctx, op.Experiments)
		if err == nil {
			_, err = c.WaitCampaign(ctx, st.ID, 10*time.Millisecond)
		}
		if err != nil {
			t.Errorf("campaign %v of tenant %q: %v", op.Experiments, op.Tenant, err)
		}
	}
}

// TestRunAgainstServer drives a synthesized trace at an in-process
// daemon and checks the report's accounting: every op completed,
// ordered percentiles, throughput and per-op slices.
func TestRunAgainstServer(t *testing.T) {
	bench, ts := benchAndServer(t, server.Config{})
	models := make([]string, len(bench.Models))
	for i, m := range bench.Models {
		models[i] = m.Name
	}
	ops, err := Synthesize(bench.Originals, models, []string{"a", "b"}, 60, 11, DefaultMix())
	if err != nil {
		t.Fatal(err)
	}
	// Registered after the server and its data directory, so it runs
	// before either is torn down.
	t.Cleanup(func() { waitCampaigns(t, ts.URL, ops) })
	rep, err := Run(context.Background(), Config{BaseURL: ts.URL, Concurrency: 4}, ops)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 60 {
		t.Errorf("requests = %d, want 60", rep.Requests)
	}
	if rep.ErrorRate != 0 {
		t.Errorf("error rate %v on a healthy server (errors %v)", rep.ErrorRate, rep.Errors)
	}
	if rep.ThroughputQPS <= 0 || rep.DurationSec <= 0 {
		t.Errorf("throughput %v over %vs", rep.ThroughputQPS, rep.DurationSec)
	}
	l := rep.LatencyMs
	if l.P50 <= 0 || l.P50 > l.P95 || l.P95 > l.P99 || l.P99 > l.Max {
		t.Errorf("percentiles not ordered: %+v", l)
	}
	var byOpTotal int
	for _, s := range rep.ByOp {
		byOpTotal += s.Requests
	}
	if byOpTotal != 60 {
		t.Errorf("by_op accounts for %d of 60 requests", byOpTotal)
	}
	if rep.Concurrency != 4 || rep.Target != ts.URL {
		t.Errorf("report config echo = %+v", rep)
	}
}

// TestRunClassifiesErrors: a saturated tenant's 429s land in the
// "rate_limited" error class and the error rate.
func TestRunClassifiesErrors(t *testing.T) {
	bench, ts := benchAndServer(t, server.Config{TenantRate: 0.001, TenantBurst: 2})
	p := bench.Originals[0]
	ops := make([]Op, 8)
	for i := range ops {
		ops[i] = Op{Op: "eval", Tenant: "bursty", Problem: p.ID, Answer: "x"}
	}
	rep, err := Run(context.Background(), Config{BaseURL: ts.URL, Concurrency: 1}, ops)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors["rate_limited"] != 6 {
		t.Errorf("rate_limited count = %d, want 6 (burst of 2 spent): %v", rep.Errors["rate_limited"], rep.Errors)
	}
	if rep.ErrorRate != 0.75 {
		t.Errorf("error rate = %v, want 0.75", rep.ErrorRate)
	}
	if rep.ByOp["eval"].Errors != 6 {
		t.Errorf("by_op eval errors = %d, want 6", rep.ByOp["eval"].Errors)
	}
}

// TestRunPacesQPS: a 100-QPS schedule over 10 ops cannot finish in
// under ~90ms, and an unpaced run of the same trace is faster.
func TestRunPacesQPS(t *testing.T) {
	_, ts := benchAndServer(t, server.Config{})
	ops := make([]Op, 10)
	for i := range ops {
		ops[i] = Op{Op: "stats"}
	}
	rep, err := Run(context.Background(), Config{BaseURL: ts.URL, QPS: 100, Concurrency: 4}, ops)
	if err != nil {
		t.Fatal(err)
	}
	// 10 ops at 100 QPS: the last emission is scheduled at 90ms.
	if rep.DurationSec < 0.09 {
		t.Errorf("paced run finished in %vs, faster than the 100-QPS schedule allows", rep.DurationSec)
	}
	if rep.QPSTarget != 100 {
		t.Errorf("qps_target = %v", rep.QPSTarget)
	}
}

// TestWriteReportArtifact: the artifact is valid JSON with the fields
// benchguard's gates read.
func TestWriteReportArtifact(t *testing.T) {
	rep := Report{
		Target: "http://x", Requests: 10, Concurrency: 2,
		DurationSec: 1, ThroughputQPS: 10,
		LatencyMs: Latency{P50: 1, P95: 2, P99: 3, Mean: 1.5, Max: 4},
		ErrorRate: 0.1, Errors: map[string]int{"rate_limited": 1},
	}
	path := filepath.Join(t.TempDir(), "loadgen.json")
	if err := WriteReport(path, rep); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	for _, key := range []string{"throughput_qps", "latency_ms", "error_rate"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("artifact missing %q", key)
		}
	}
	if lm := decoded["latency_ms"].(map[string]any); lm["p99"] != 3.0 {
		t.Errorf("latency_ms.p99 = %v", lm["p99"])
	}
}

// TestPercentile pins nearest-rank behavior.
func TestPercentile(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		q    float64
		want float64
	}{{0.50, 5}, {0.95, 10}, {0.99, 10}, {0.10, 1}}
	for _, c := range cases {
		if got := percentile(vals, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("empty slice percentile != 0")
	}
	if percentile([]float64{7}, 0.99) != 7 {
		t.Error("singleton percentile != its value")
	}
}
