package server_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cloudeval/client"
	"cloudeval/internal/core"
	"cloudeval/internal/dataset"
	"cloudeval/internal/engine"
	"cloudeval/internal/inference"
	"cloudeval/internal/llm"
	"cloudeval/internal/raceflag"
	"cloudeval/internal/score"
	"cloudeval/internal/server"
	"cloudeval/internal/store"
	"cloudeval/internal/unittest"
	"cloudeval/internal/yamlmatch"
)

func smallBench(eng *engine.Engine) *core.Benchmark {
	models := llm.Models[:3]
	return core.New(score.NewEvaluator(eng, inference.NewDispatcher(inference.NewSim(models))), dataset.Generate()[:10], models)
}

func newTestServer(t *testing.T, bench *core.Benchmark) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(server.NewWithConfig(bench, t.TempDir(), server.Config{}).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// newTestClient stands up a server over bench and returns the typed
// client every test speaks — the same package loadgen drives load
// through.
func newTestClient(t *testing.T, bench *core.Benchmark) *client.Client {
	t.Helper()
	return client.New(newTestServer(t, bench).URL)
}

// apiErr asserts err is an *client.APIError with the given status and
// envelope code.
func apiErr(t *testing.T, err error, status int, code string) *client.APIError {
	t.Helper()
	ae, ok := err.(*client.APIError)
	if !ok {
		t.Fatalf("error %v (%T), want *client.APIError", err, err)
	}
	if ae.Status != status || ae.Code != code {
		t.Fatalf("APIError = %d %q, want %d %q (%s)", ae.Status, ae.Code, status, code, ae.Message)
	}
	return ae
}

func TestEvalEndpoint(t *testing.T) {
	ctx := context.Background()
	bench := smallBench(engine.New())
	c := newTestClient(t, bench)
	p := bench.Originals[0]
	ref := yamlmatch.StripLabels(p.ReferenceYAML)

	// A literal reference answer scores a perfect unit test.
	got, err := c.Eval(ctx, client.EvalRequest{Problem: p.ID, Answer: ref})
	if err != nil {
		t.Fatal(err)
	}
	if got.Problem != p.ID || got.Scores["unit_test"] != 1 || got.Scores["kv_wildcard"] != 1 {
		t.Fatalf("reference answer scored %+v", got)
	}

	// Model-generated evaluation.
	if _, err := c.Eval(ctx, client.EvalRequest{Problem: p.ID, Model: bench.Models[0].Name}); err != nil {
		t.Fatalf("model eval: %v", err)
	}

	// Error shapes: status + envelope code.
	_, err = c.Eval(ctx, client.EvalRequest{Problem: "nope", Answer: "x"})
	apiErr(t, err, 404, "not_found")
	_, err = c.Eval(ctx, client.EvalRequest{Problem: p.ID})
	apiErr(t, err, 400, "bad_request")
	_, err = c.Eval(ctx, client.EvalRequest{Problem: p.ID, Answer: "x", Model: "gpt-4"})
	apiErr(t, err, 400, "bad_request")

	// A body is exactly one JSON value: bytes after it are a 400, and a
	// body over the cap is a 413 even when its value ends before the cap.
	h := server.NewWithConfig(bench, t.TempDir(), server.Config{}).Handler()
	value := `{"problem":"` + p.ID + `","answer":"x"}`
	for _, tc := range []struct {
		name   string
		body   string
		status int
		code   string
	}{
		{"value alone", value + " \n", http.StatusOK, ""},
		{"trailing bytes", value + " x", http.StatusBadRequest, `"bad_request"`},
		{"second value", value + value, http.StatusBadRequest, `"bad_request"`},
		{"value, then padding past the cap", value + strings.Repeat(" ", 1<<20), http.StatusRequestEntityTooLarge, `"request_too_large"`},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/eval", strings.NewReader(tc.body)))
		if rec.Code != tc.status || !strings.Contains(rec.Body.String(), tc.code) {
			t.Errorf("%s: %d %s, want %d %s", tc.name, rec.Code, rec.Body, tc.status, tc.code)
		}
	}
}

// replayBody is a request body that can be read again after a Reset.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// discardReply is a ResponseWriter that keeps only the status and one
// header map, reused across requests.
type discardReply struct {
	header http.Header
	status int
}

func (d *discardReply) Header() http.Header         { return d.header }
func (d *discardReply) WriteHeader(status int)      { d.status = status }
func (d *discardReply) Write(p []byte) (int, error) { return len(p), nil }

// TestEvalHandlerAllocs: a repeated literal /v1/eval, its unit test
// served from the engine's memo, allocates at most evalHandlerMaxAllocs
// in the handler chain. It measures 16 with Go 1.24; the cap leaves
// room for other releases, and is well under the 41 that a scores map,
// a json.Decoder per request and an Encoder's regrown indent buffer
// cost.
func TestEvalHandlerAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const evalHandlerMaxAllocs = 20
	bench := smallBench(engine.New())
	h := server.NewWithConfig(bench, t.TempDir(), server.Config{}).Handler()
	p := bench.Originals[0]
	payload, err := json.Marshal(client.EvalRequest{Problem: p.ID, Answer: yamlmatch.StripLabels(p.ReferenceYAML)})
	if err != nil {
		t.Fatal(err)
	}
	body := &replayBody{}
	req := httptest.NewRequest(http.MethodPost, "/v1/eval", body)
	w := &discardReply{header: http.Header{}}
	serve := func() {
		body.Reset(payload)
		clear(w.header)
		w.status = 0
		h.ServeHTTP(w, req)
	}
	serve() // executes the unit test once; the runs below hit the memo
	allocs := testing.AllocsPerRun(200, serve)
	if w.status != http.StatusOK {
		t.Fatalf("status %d", w.status)
	}
	t.Logf("%.1f allocations per repeated literal /v1/eval", allocs)
	if allocs > evalHandlerMaxAllocs {
		t.Errorf("%.1f allocations per repeated literal /v1/eval, want at most %d", allocs, evalHandlerMaxAllocs)
	}
}

// fill is an endless stream of one byte.
type fill byte

func (f fill) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(f)
	}
	return len(p), nil
}

// countingReader counts what is read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// TestRequestBodyCapped: both routes that decode a body stop at 1 MiB
// and answer 413 request_too_large. What the handler takes off the wire
// — and so what the decoder can buffer — is the cap plus the one byte
// that shows the body is over it, whether the body is 2 MiB or 64.
func TestRequestBodyCapped(t *testing.T) {
	bench := smallBench(engine.New())
	ts := newTestServer(t, bench)
	p := bench.Originals[0]

	c := client.New(ts.URL)
	_, err := c.Eval(context.Background(), client.EvalRequest{Problem: p.ID, Answer: strings.Repeat("a", 2<<20)})
	apiErr(t, err, 413, "request_too_large")

	// A body under the cap is read and judged on its merits.
	_, err = c.Eval(context.Background(), client.EvalRequest{Problem: p.ID, Answer: strings.Repeat("a", 1<<19)})
	if err != nil {
		t.Errorf("512 KiB answer: %v", err)
	}

	h := server.NewWithConfig(bench, t.TempDir(), server.Config{}).Handler()
	for _, route := range []string{"/v1/eval", "/v1/campaign"} {
		for _, size := range []int64{2 << 20, 64 << 20} {
			body := &countingReader{r: io.MultiReader(
				strings.NewReader(`{"problem":"`+p.ID+`","answer":"`),
				io.LimitReader(fill('a'), size),
				strings.NewReader(`"}`))}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", route, body))
			if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), `"request_too_large"`) {
				t.Errorf("%s with a %d MiB body: %d %s, want 413 request_too_large", route, size>>20, rec.Code, rec.Body)
			}
			if body.n > 1<<20+1 {
				t.Errorf("%s with a %d MiB body: the handler read %d bytes of it, want at most 1 MiB + 1", route, size>>20, body.n)
			}
		}
	}
}

// TestLeaderboardByteIdentical: /v1/leaderboard must render exactly
// core.Benchmark's Table 4, including under concurrent (coalesced)
// requests.
func TestLeaderboardByteIdentical(t *testing.T) {
	bench := smallBench(engine.New())
	c := newTestClient(t, bench)

	const n = 8
	bodies := make([]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bodies[i], errs[i] = c.Leaderboard(context.Background())
		}(i)
	}
	wg.Wait()

	want := bench.Table4()
	for i, b := range bodies {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if b != want {
			t.Fatalf("leaderboard %d differs from core.Benchmark.Table4:\n--- got ---\n%s--- want ---\n%s", i, b, want)
		}
	}
}

// TestFamilyLeaderboardEndpoint: /v1/leaderboard/families serves the
// per-workload-family rows, one column per registered scenario backend
// (including the compose and helm extension families), byte-identical
// to core.Benchmark.FamilyLeaderboard.
func TestFamilyLeaderboardEndpoint(t *testing.T) {
	// A cross-family slice of the corpus: two problems per family.
	var subset []dataset.Problem
	seen := map[dataset.Category]int{}
	for _, p := range dataset.Generate() {
		if seen[p.Category] < 2 {
			seen[p.Category]++
			subset = append(subset, p)
		}
	}
	models := llm.Models[:2]
	bench := core.New(score.NewEvaluator(engine.New(), inference.NewDispatcher(inference.NewSim(models))), subset, models)
	c := newTestClient(t, bench)
	body, err := c.FamilyLeaderboard(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"kubernetes", "envoy", "istio", "compose", "helm", "overall"} {
		if !strings.Contains(body, col) {
			t.Errorf("family leaderboard missing %q column:\n%s", col, body)
		}
	}
	if want := bench.FamilyLeaderboard(); body != want {
		t.Fatalf("family leaderboard differs from core:\n--- got ---\n%s--- want ---\n%s", body, want)
	}
}

func waitCampaignDone(t *testing.T, c *client.Client, id string) client.CampaignStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := c.WaitCampaign(ctx, id, 20*time.Millisecond)
	if err != nil {
		t.Fatalf("campaign %s: %v", id, err)
	}
	return st
}

// TestCampaignAsyncResume drives the async campaign API, then restarts
// the daemon (fresh server, fresh benchmark, same data dir) and
// requires the resumed campaign to replay from checkpoints without
// executing a single unit test.
func TestCampaignAsyncResume(t *testing.T) {
	ctx := context.Background()
	dataDir := t.TempDir()
	ids := []string{"table2", "table4"}

	ts := httptest.NewServer(server.NewWithConfig(smallBench(engine.New()), dataDir, server.Config{}).Handler())
	c := client.New(ts.URL)
	started, err := c.StartCampaign(ctx, ids)
	if err != nil {
		t.Fatalf("campaign start: %v", err)
	}
	done := waitCampaignDone(t, c, started.ID)
	if len(done.Completed) != 2 || done.Outputs["table4"] == "" {
		t.Fatalf("campaign status = %+v", done)
	}
	firstTable4 := done.Outputs["table4"]
	ts.Close()

	// Re-posting the identical experiment set yields the same campaign
	// ID, and the restarted daemon serves it from checkpoints: the new
	// engine never executes.
	eng2 := engine.New()
	ts2 := httptest.NewServer(server.NewWithConfig(smallBench(eng2), dataDir, server.Config{}).Handler())
	defer ts2.Close()
	c2 := client.New(ts2.URL)

	// Before any re-POST, the restarted daemon reconstructs the
	// campaign's status from its manifest instead of 404ing.
	fromDisk, err := c2.Campaign(ctx, started.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fromDisk.State != "done" || len(fromDisk.Completed) != 2 || fromDisk.Outputs["table4"] != firstTable4 {
		t.Fatalf("rehydrated campaign status = %+v", fromDisk)
	}

	// A directory written before manifests recorded their experiments
	// (a campaign.json beside a manifest holding only "completed") is
	// unknown to a GET, and a re-post resumes it.
	legacyIDs := []string{"table2"}
	sum := sha256.Sum256([]byte("table2")) // the default tenant's campaign ID derivation
	legacyID := "c-" + hex.EncodeToString(sum[:6])
	legacy := filepath.Join(dataDir, "campaigns", legacyID)
	if err := os.MkdirAll(legacy, 0o755); err != nil {
		t.Fatal(err)
	}
	// A checkpoint no run would write, so the resumed output shows it
	// was replayed.
	const table2 = "table2 as a pre-manifest daemon checkpointed it\n"
	for name, data := range map[string]string{
		"campaign.json":   `{"id":"` + legacyID + `","experiments":["table2"]}`,
		core.ManifestName: `{"completed":{"table2":"table2.txt"}}`,
		"table2.txt":      table2,
	} {
		if err := os.WriteFile(filepath.Join(legacy, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, err = c2.Campaign(ctx, legacyID)
	apiErr(t, err, 404, "not_found")

	restarted, err := c2.StartCampaign(ctx, ids)
	if err != nil {
		t.Fatalf("campaign restart: %v", err)
	}
	if restarted.ID != started.ID {
		t.Fatalf("campaign ID changed across restart: %s vs %s", restarted.ID, started.ID)
	}
	done = waitCampaignDone(t, c2, restarted.ID)
	if done.Outputs["table4"] != firstTable4 {
		t.Error("resumed campaign's table4 differs from the original run")
	}
	if st := eng2.Stats(); st.Executed != 0 {
		t.Errorf("resumed campaign executed %d unit tests, want 0", st.Executed)
	}
	if _, err := c2.StartCampaign(ctx, legacyIDs); err != nil {
		t.Fatal(err)
	}
	resumed := waitCampaignDone(t, c2, legacyID)
	if resumed.Outputs["table2"] != table2 {
		t.Errorf("resumed pre-manifest campaign's table2 = %q, want its checkpoint replayed", resumed.Outputs["table2"])
	}
	if st := eng2.Stats(); st.Executed != 0 {
		t.Errorf("resumed pre-manifest campaign executed %d unit tests, want 0", st.Executed)
	}
}

// TestColdStartWarmStore is the daemon-side acceptance contract: a
// cold-started daemon whose engine sits on a warm persistent store
// serves the Table 4 leaderboard byte-identical to core.Benchmark
// without executing a single unit test.
func TestColdStartWarmStore(t *testing.T) {
	ctx := context.Background()
	storePath := filepath.Join(t.TempDir(), "eval.store")

	// Warm the store with one full campaign in a "previous process".
	st, err := store.Open(storePath)
	if err != nil {
		t.Fatal(err)
	}
	warmBench := smallBench(engine.New(engine.WithStore(st)))
	want := warmBench.Table4()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Cold start: fresh store handle, fresh engine, fresh benchmark,
	// fresh server.
	st2, err := store.Open(storePath)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	eng := engine.New(engine.WithStore(st2))
	c := newTestClient(t, smallBench(eng))

	got, err := c.Leaderboard(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("cold-start leaderboard differs from warm benchmark's Table 4:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Executed != 0 {
		t.Errorf("cold-start daemon executed %d unit tests, want 0", stats.Executed)
	}
	if stats.StoreHits == 0 {
		t.Error("cold-start daemon recorded no store hits")
	}
}

// TestStatsExposeGenerationCounters verifies /v1/stats carries the
// inference-side counters: provider name, live generations, generation
// cache tiers and metered token usage.
func TestStatsExposeGenerationCounters(t *testing.T) {
	ctx := context.Background()
	eng := engine.New()
	bench := smallBench(eng)
	c := newTestClient(t, bench)

	if _, err := c.Leaderboard(ctx); err != nil {
		t.Fatal(err)
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Provider != "sim" {
		t.Errorf("provider = %q, want sim", stats.Provider)
	}
	if stats.Generated == 0 {
		t.Error("leaderboard campaign reported zero generations")
	}
	if stats.PromptTokens == 0 || stats.CompletionTokens == 0 {
		t.Errorf("no token usage metered: %+v", stats)
	}
}

// TestStatsExposeStoreShards pins the store block of GET /v1/stats: a
// store-backed daemon surfaces shard count, per-shard record counts
// and the aggregate frames-per-flush ratio, with the exact JSON
// key names the dashboards and benchguard consume; a store-less daemon
// omits the block entirely.
func TestStatsExposeStoreShards(t *testing.T) {
	ctx := context.Background()
	st, err := store.Open(filepath.Join(t.TempDir(), "eval.store"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	bench := smallBench(engine.New(engine.WithStore(st)))
	ts := httptest.NewServer(server.NewWithConfig(bench, t.TempDir(), server.Config{Store: st}).Handler())
	t.Cleanup(ts.Close)
	c := client.New(ts.URL)

	if _, err := c.Leaderboard(ctx); err != nil {
		t.Fatal(err)
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Store == nil {
		t.Fatal("store-backed daemon omitted the store stats block")
	}
	ss := stats.Store
	if ss.Shards < 2 || ss.Shards&(ss.Shards-1) != 0 {
		t.Errorf("shards = %d, want a power of two >= 2", ss.Shards)
	}
	if len(ss.PerShard) != ss.Shards {
		t.Errorf("per_shard has %d entries, want %d", len(ss.PerShard), ss.Shards)
	}
	if ss.Records == 0 || ss.Appended == 0 || ss.Flushes == 0 {
		t.Errorf("campaign left empty store counters: %+v", ss)
	}
	if ss.FramesPerFlush <= 0 {
		t.Errorf("frames_per_flush = %v, want > 0", ss.FramesPerFlush)
	}
	var recs int
	var appended, flushes int64
	for _, sh := range ss.PerShard {
		recs += sh.Records
		appended += sh.Appended
		flushes += sh.Flushes
	}
	if recs != ss.Records || appended != ss.Appended || flushes != ss.Flushes {
		t.Errorf("per-shard sums %d/%d/%d disagree with aggregates %d/%d/%d",
			recs, appended, flushes, ss.Records, ss.Appended, ss.Flushes)
	}

	// Pin the wire shape: exact key names, per_shard as an array of
	// objects carrying the four counters.
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"cache_entries", "cache_bytes", "cache_evictions", "gen_cache_entries", "gen_cache_bytes", "gen_cache_evictions"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("stats missing key %q", key)
		}
	}
	var storeBlock map[string]json.RawMessage
	if err := json.Unmarshal(raw["store"], &storeBlock); err != nil {
		t.Fatalf("store block: %v", err)
	}
	for _, key := range []string{"shards", "records", "generations", "appended", "flushes", "frames_per_flush", "per_shard", "resident_bytes", "last_open"} {
		if _, ok := storeBlock[key]; !ok {
			t.Errorf("store block missing key %q", key)
		}
	}
	if len(storeBlock) != 9 {
		t.Errorf("store block has %d keys, want exactly 9: %v", len(storeBlock), storeBlock)
	}
	var lastOpen map[string]json.RawMessage
	if err := json.Unmarshal(storeBlock["last_open"], &lastOpen); err != nil {
		t.Fatalf("last_open block: %v", err)
	}
	for _, key := range []string{"scanned_frames", "legacy_frames", "duration_ms"} {
		if _, ok := lastOpen[key]; !ok {
			t.Errorf("last_open block missing key %q", key)
		}
	}
	if len(lastOpen) != 3 {
		t.Errorf("last_open block has %d keys, want exactly 3: %v", len(lastOpen), lastOpen)
	}

	// The typed client decodes the out-of-core economics: a campaign's
	// records are resident as index entries, never as raw payload maps.
	if ss.ResidentBytes <= 0 {
		t.Errorf("resident_bytes = %d, want > 0 on a populated store", ss.ResidentBytes)
	}
	var perShard []map[string]json.RawMessage
	if err := json.Unmarshal(storeBlock["per_shard"], &perShard); err != nil {
		t.Fatalf("per_shard: %v", err)
	}
	for _, key := range []string{"records", "generations", "appended", "flushes"} {
		if _, ok := perShard[0][key]; !ok {
			t.Errorf("per_shard entries missing key %q", key)
		}
	}

	// A store-less daemon omits the block — single-tenant wire contract
	// stays byte-compatible.
	plain := newTestClient(t, smallBench(engine.New()))
	pstats, err := plain.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if pstats.Store != nil {
		t.Errorf("store-less daemon served a store block: %+v", pstats.Store)
	}
}

// TestColdStartWarmGenerationStore extends the warm-store contract to
// the generation side: a cold-started daemon whose dispatcher sits on
// a store warmed by a previous process serves the leaderboard with
// zero live generations.
func TestColdStartWarmGenerationStore(t *testing.T) {
	ctx := context.Background()
	storePath := filepath.Join(t.TempDir(), "eval.store")
	originals := dataset.Generate()[:10]
	models := llm.Models[:3]

	st, err := store.Open(storePath)
	if err != nil {
		t.Fatal(err)
	}
	warmDisp := inference.NewDispatcher(inference.NewSim(models), inference.WithGenStore(st))
	warmBench := core.New(score.NewEvaluator(engine.New(engine.WithStore(st)), warmDisp), originals, models)
	want := warmBench.Table4()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(storePath)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	coldDisp := inference.NewDispatcher(inference.NewSim(models), inference.WithGenStore(st2))
	bench := core.New(score.NewEvaluator(engine.New(engine.WithStore(st2)), coldDisp), originals, models)
	c := newTestClient(t, bench)

	if got, err := c.Leaderboard(ctx); err != nil || got != want {
		t.Errorf("cold-start leaderboard differs from the warm campaign (err %v)", err)
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Generated != 0 {
		t.Errorf("cold-start daemon generated %d live responses, want 0", stats.Generated)
	}
	if stats.GenStoreHits == 0 {
		t.Error("cold-start daemon recorded no generation store hits")
	}
}

// failingProvider errors on every generation until healthy is set,
// then serves inner's.
type failingProvider struct {
	healthy atomic.Bool
	inner   inference.Provider
}

func (*failingProvider) Name() string { return "failing" }
func (p *failingProvider) Generate(ctx context.Context, req inference.Request) (inference.Response, error) {
	if p.healthy.Load() {
		return p.inner.Generate(ctx, req)
	}
	return inference.Response{}, fmt.Errorf("backend down")
}
func (*failingProvider) Close() error { return nil }

// panickingExecutor runs unit tests in process but panics on one
// problem, as a simulator bug would.
type panickingExecutor struct {
	engine.PoolExecutor
	id string
}

func (x panickingExecutor) RunUnitTest(p dataset.Problem, answer string) unittest.Result {
	if p.ID == x.id {
		panic("simulator bug on " + p.ID)
	}
	return x.PoolExecutor.RunUnitTest(p, answer)
}

// TestExecutorPanicIsAnInternalError: a simulator panic on one of the
// engine's workers answers the leaderboard request with a 500 naming
// the panic, and the daemon stays up.
func TestExecutorPanicIsAnInternalError(t *testing.T) {
	ctx := context.Background()
	models := llm.Models[:2]
	originals := dataset.Generate()[:4]
	eng := engine.New(engine.WithExecutor(panickingExecutor{id: originals[0].ID}))
	c := newTestClient(t, core.New(score.NewEvaluator(eng, inference.NewDispatcher(inference.NewSim(models))), originals, models))
	_, err := c.Leaderboard(ctx)
	if ae := apiErr(t, err, 500, "internal"); !strings.Contains(ae.Message, "simulator bug on "+originals[0].ID) {
		t.Errorf("error does not name the panic: %s", ae.Message)
	}
	if err := c.Healthz(ctx); err != nil {
		t.Fatalf("healthz after the panic: %v", err)
	}
}

// TestGenerationFailuresFailExperiments pins the daemon's error
// surfacing: an experiment or campaign whose provider fails must
// produce a 500 (or a failed campaign) with the generation-failure
// count — never a silently zero-scored leaderboard cached as complete.
// Once the provider recovers, the same requests succeed.
func TestGenerationFailuresFailExperiments(t *testing.T) {
	ctx := context.Background()
	models := llm.Models[:2]
	prov := &failingProvider{inner: inference.NewSim(models)}
	bench := core.New(score.NewEvaluator(engine.New(), inference.NewDispatcher(prov)), dataset.Generate()[:4], models)
	c := newTestClient(t, bench)

	_, err := c.Leaderboard(ctx)
	ae := apiErr(t, err, 500, "internal")
	if !strings.Contains(ae.Message, "generation failures") {
		t.Errorf("error does not name the cause: %s", ae.Message)
	}
	// The model-generation eval path reports the failure directly.
	_, err = c.Eval(ctx, client.EvalRequest{Problem: bench.Problems[0].ID, Model: bench.Models[0].Name})
	apiErr(t, err, 502, "bad_gateway")
	start, err := c.StartCampaign(ctx, []string{"table4"})
	if err != nil {
		t.Fatal(err)
	}
	waitCtx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	if st, err := c.WaitCampaign(waitCtx, start.ID, 20*time.Millisecond); err == nil || !strings.Contains(st.Error, "generation failures") {
		t.Fatalf("campaign over a failing provider = %+v, %v; want failed on generation failures", st, err)
	}

	// Nothing failed was kept: the leaderboard is computed afresh, and
	// the re-posted campaign runs to completion.
	prov.healthy.Store(true)
	got, err := c.Leaderboard(ctx)
	if err != nil {
		t.Fatalf("leaderboard after the provider recovered: %v", err)
	}
	if want := bench.Table4(); got != want {
		t.Errorf("leaderboard after recovery differs from core.Table4:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if _, err := c.StartCampaign(ctx, []string{"table4"}); err != nil {
		t.Fatal(err)
	}
	if done := waitCampaignDone(t, c, start.ID); done.Outputs["table4"] != got {
		t.Error("re-posted campaign's table4 differs from the leaderboard")
	}
}
