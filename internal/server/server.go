// Package server implements the HTTP service cloudeval serve runs: the
// CloudEval-YAML benchmark as a long-lived, multi-tenant daemon over a
// shared engine and persistent evaluation store. Endpoints (documented
// in detail in API.md at the repository root):
//
//	POST /v1/eval            score one answer (or one model's answer) on one problem
//	POST /v1/campaign        start (or resume) an async experiment campaign
//	GET  /v1/campaign/{id}   poll campaign status and outputs
//	GET  /v1/leaderboard     the cached Table 4 (byte-identical to core.Benchmark)
//	GET  /v1/leaderboard/families  per-workload-family rows (one column per scenario backend)
//	GET  /v1/stats           engine counters (executed / cache / store hits),
//	                         inference counters (generated / generation cache and
//	                         store hits / metered token usage) and per-route
//	                         request/latency counters
//	GET  /healthz            liveness
//
// Every request belongs to a tenant (X-Tenant header or ?tenant=;
// absent means the default tenant, which keeps the single-tenant wire
// contract byte-for-byte). Experiment caches, in-flight coalescing,
// campaign IDs and checkpoint directories are tenant-scoped; the
// engine, store and dispatcher underneath are shared content-addressed
// tiers. Admission control guards the two POST endpoints: a per-tenant
// token bucket and a bounded campaign queue, both answering 429 +
// Retry-After when exhausted, so one tenant's flood degrades into
// polite backpressure instead of starving the fleet.
//
// All error responses share one JSON envelope,
// {"error":{"code","message"}}, decoded by the typed client in
// cloudeval/client.
//
// The inference provider — sim zoo, replayed trace, or live HTTP
// endpoint — is configured at construction via the benchmark's
// evaluator (core.New); every model generation the server performs
// routes through its dispatcher and generation cache.
//
// Every experiment computation is coalesced per tenant: concurrent
// requests for the same experiment share one in-flight generation, and
// completed outputs are served from memory. Campaigns are checkpointed
// via core.Benchmark.RunCampaign under the server's data directory, so
// a restarted daemon resumes them instead of recomputing.
package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"cloudeval/internal/core"
	"cloudeval/internal/dataset"
	"cloudeval/internal/inference"
	"cloudeval/internal/llm"
	"cloudeval/internal/store"
)

// Config tunes the service tier. The zero value is fully permissive —
// no rate limit, unbounded campaign admission — matching the
// pre-tenancy daemon, so embedded and test servers need no
// configuration. cloudeval serve exposes each knob as a flag.
type Config struct {
	// TenantRate is the per-tenant token-bucket refill rate, in
	// requests per second, applied to POST /v1/eval and POST
	// /v1/campaign. 0 disables rate limiting.
	TenantRate float64
	// TenantBurst is the bucket capacity — the instantaneous burst a
	// tenant may spend before the rate applies. Values below 1 are
	// clamped to 1 when TenantRate is set.
	TenantBurst int
	// CampaignQueue bounds campaigns admitted but not yet finished,
	// across all tenants; a full queue answers 429 + Retry-After.
	// 0 means unbounded.
	CampaignQueue int
	// CampaignWorkers bounds concurrently running campaigns; admitted
	// campaigns beyond it wait in state "queued". 0 means unbounded.
	CampaignWorkers int
	// Store, when set, is the persistent evaluation store backing the
	// benchmark; GET /v1/stats then surfaces its shard layout and
	// group-commit batching counters. Nil (a store-less daemon) simply
	// omits the block.
	Store *store.Store
}

// Server serves one benchmark instance. Construct with NewWithConfig.
type Server struct {
	bench   *core.Benchmark
	dataDir string
	mux     *http.ServeMux
	cfg     Config
	limiter *tenantLimiter
	routes  map[string]*routeStats

	problems map[string]dataset.Problem
	models   map[string]llm.Model

	mu              sync.Mutex
	tenants         map[string]*tenantState
	campaignPending int           // campaigns admitted and not yet finished
	campaignSem     chan struct{} // nil = unbounded concurrent campaigns

	start time.Time
}

// flight coalesces concurrent requests for one experiment into a
// single generation.
type flight struct {
	done chan struct{}
	out  string
	err  error
}

// campaign tracks one async experiment run.
type campaign struct {
	ID          string   `json:"id"`
	Experiments []string `json:"experiments"`
	tenant      string

	mu        sync.Mutex
	state     string // "queued", "running", "done", "failed"
	completed []string
	errMsg    string
}

// NewWithConfig builds a server over bench with admission control per
// cfg. dataDir roots campaign checkpoints (the default tenant's under
// <dataDir>/campaigns/<id>, other tenants' under
// <dataDir>/tenants/<tenant>/campaigns/<id>).
func NewWithConfig(bench *core.Benchmark, dataDir string, cfg Config) *Server {
	s := &Server{
		bench:    bench,
		dataDir:  dataDir,
		mux:      http.NewServeMux(),
		cfg:      cfg,
		limiter:  newTenantLimiter(cfg.TenantRate, cfg.TenantBurst),
		routes:   make(map[string]*routeStats),
		problems: make(map[string]dataset.Problem, len(bench.Problems)),
		models:   make(map[string]llm.Model, len(bench.Models)),
		tenants:  make(map[string]*tenantState),
		start:    time.Now(),
	}
	if cfg.CampaignWorkers > 0 {
		s.campaignSem = make(chan struct{}, cfg.CampaignWorkers)
	}
	for _, p := range bench.Problems {
		s.problems[p.ID] = p
	}
	for _, m := range bench.Models {
		s.models[m.Name] = m
	}
	s.handle("GET /healthz", s.handleHealthz)
	s.handle("GET /v1/leaderboard", s.handleLeaderboard)
	s.handle("GET /v1/leaderboard/families", s.handleFamilyLeaderboard)
	s.handle("GET /v1/stats", s.handleStats)
	s.handle("POST /v1/eval", s.handleEval)
	s.handle("POST /v1/campaign", s.handleCampaignStart)
	s.handle("GET /v1/campaign/{id}", s.handleCampaignStatus)
	return s
}

// Handler returns the server's HTTP handler: the /v1 routes behind the
// request-ID middleware.
func (s *Server) Handler() http.Handler { return withRequestID(s.mux) }

// admit runs the per-tenant token bucket for one POST request, writing
// the 429 itself when the bucket is dry.
func (s *Server) admit(w http.ResponseWriter, tn *tenantState) bool {
	ok, retry := s.limiter.allow(tn.name)
	if !ok {
		writeRetryError(w, http.StatusTooManyRequests, codeRateLimited,
			fmt.Sprintf("tenant %q is over its request rate", tn.name), retry)
		return false
	}
	return true
}

// experiment generates (or replays) one experiment with per-tenant
// request coalescing: the first caller computes, concurrent callers of
// the same tenant park on the flight, later callers hit the in-memory
// result. Distinct tenants compute independently — the shared engine
// and dispatcher underneath make the recompute a cache walk, and the
// serving layer never hands one tenant an object another tenant's
// request produced.
func (s *Server) experiment(tn *tenantState, id string) (string, error) {
	gens := s.bench.Experiments()
	gen, ok := gens[id]
	if !ok {
		return "", fmt.Errorf("unknown experiment %q", id)
	}
	s.mu.Lock()
	if out, ok := tn.results[id]; ok {
		s.mu.Unlock()
		return out, nil
	}
	if f, ok := tn.flights[id]; ok {
		s.mu.Unlock()
		<-f.done
		return f.out, f.err
	}
	f := &flight{done: make(chan struct{})}
	tn.flights[id] = f
	s.mu.Unlock()

	// Generation failures surface as failed experiments, not as
	// silently zero-scored tables: campaign paths render an errored
	// generation as an empty answer so the run completes, latching the
	// error into the dispatcher — so count failures across the run and
	// refuse to cache (or checkpoint) an output produced with any. The
	// counter is the dispatcher's, which every request shares, so a
	// concurrent failing request can fail an unrelated clean experiment
	// — deliberately conservative: a retry succeeds, a corrupt output
	// is never cached. A request whose client hung up is not counted.
	disp := s.bench.Evaluator().Dispatcher()
	genStats := disp.Stats()
	func() {
		defer func() {
			if r := recover(); r != nil {
				f.err = fmt.Errorf("experiment %s: %v", id, r)
			}
		}()
		f.out = gen()
	}()
	if f.err == nil {
		if failed := disp.Stats().Errors - genStats.Errors; failed > 0 {
			f.err = fmt.Errorf("experiment %s: %d generation failures (first: %v)",
				id, failed, disp.Err())
		}
	}
	close(f.done)

	s.mu.Lock()
	delete(tn.flights, id)
	if f.err == nil {
		tn.results[id] = f.out
	}
	s.mu.Unlock()
	return f.out, f.err
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleLeaderboard serves Table 4 byte-identical to
// core.Benchmark.Table4, cached and coalesced per tenant.
func (s *Server) handleLeaderboard(w http.ResponseWriter, r *http.Request) {
	tn, ok := s.tenantFor(w, r)
	if !ok {
		return
	}
	out, err := s.experiment(tn, "table4")
	if err != nil {
		writeError(w, http.StatusInternalServerError, codeInternal, err.Error())
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, out)
}

// handleFamilyLeaderboard serves the per-workload-family breakdown
// (core.Benchmark.FamilyLeaderboard): one column per registered
// scenario backend, including the extension families the pinned
// Table 4 excludes. It shares the ZeroShot campaign with the main
// leaderboard, so serving both costs one evaluation.
func (s *Server) handleFamilyLeaderboard(w http.ResponseWriter, r *http.Request) {
	tn, ok := s.tenantFor(w, r)
	if !ok {
		return
	}
	out, err := s.experiment(tn, "families")
	if err != nil {
		writeError(w, http.StatusInternalServerError, codeInternal, err.Error())
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, out)
}

// statsResponse is the engine, inference and serving-layer counter
// snapshot.
type statsResponse struct {
	Executor  string `json:"executor"`
	Workers   int    `json:"workers"`
	Executed  int64  `json:"executed"`
	CacheHits int64  `json:"cache_hits"`
	StoreHits int64  `json:"store_hits"`

	// The engine's in-memory execution cache: resident results, their
	// charge against its fixed budget, and results dropped to stay
	// under it.
	CacheEntries   int   `json:"cache_entries"`
	CacheBytes     int64 `json:"cache_bytes"`
	CacheEvictions int64 `json:"cache_evictions"`

	// Pipeline depth gauges: instantaneous occupancy of the streaming
	// generation→execution pipeline (DESIGN.md §2.12). All three read
	// zero when no campaign is mid-flight.
	GenInflight        int64 `json:"gen_inflight"`
	PipelineQueueDepth int64 `json:"pipeline_queue_depth"`
	ExecBusy           int64 `json:"exec_busy"`

	// Inference-side counters: live provider calls, generation cache
	// tiers, and the metered token usage of live generations.
	Provider         string `json:"provider"`
	Generated        int64  `json:"generated"`
	GenCacheHits     int64  `json:"gen_cache_hits"`
	GenStoreHits     int64  `json:"gen_store_hits"`
	GenErrors        int64  `json:"gen_errors,omitempty"`
	PromptTokens     int64  `json:"prompt_tokens"`
	CompletionTokens int64  `json:"completion_tokens"`

	// The dispatcher's in-memory generation cache, as for the engine's.
	GenCacheEntries   int   `json:"gen_cache_entries"`
	GenCacheBytes     int64 `json:"gen_cache_bytes"`
	GenCacheEvictions int64 `json:"gen_cache_evictions"`

	// Serving-layer counters: daemon uptime, known tenants, and
	// per-route request/latency aggregates.
	UptimeSec float64                   `json:"uptime_sec"`
	Tenants   int                       `json:"tenants"`
	Routes    map[string]routeStatsJSON `json:"routes"`

	// Store is the persistent store's shard layout and group-commit
	// batching snapshot; omitted when the daemon runs store-less.
	Store *storeStatsJSON `json:"store,omitempty"`
}

// storeStatsJSON is the GET /v1/stats view of the sharded store:
// layout, aggregate counters, and the frames-per-flush batching ratio
// whose collapse toward 1.0 is the contention-regression tell.
type storeStatsJSON struct {
	Shards      int   `json:"shards"`
	Records     int   `json:"records"`
	Generations int   `json:"generations"`
	Appended    int64 `json:"appended"`
	Flushes     int64 `json:"flushes"`
	// FramesPerFlush is Appended/Flushes: >1 means group commit is
	// batching concurrent writers into shared fsyncs.
	FramesPerFlush float64           `json:"frames_per_flush"`
	PerShard       []store.ShardStat `json:"per_shard"`

	// Out-of-core economics: resident memory (the offset index, never
	// payload-proportional) and how the last Open rebuilt the index.
	ResidentBytes int64              `json:"resident_bytes"`
	LastOpen      storeOpenStatsJSON `json:"last_open"`
}

// storeOpenStatsJSON describes the last Open's index rebuild.
type storeOpenStatsJSON struct {
	ScannedFrames int     `json:"scanned_frames"`
	LegacyFrames  int     `json:"legacy_frames"`
	DurationMs    float64 `json:"duration_ms"`
}

func storeStatsFor(st *store.Store) *storeStatsJSON {
	op := st.LastOpen()
	out := &storeStatsJSON{
		Shards:        st.Shards(),
		Records:       st.Len(),
		Generations:   st.GenLen(),
		Appended:      st.Appended(),
		Flushes:       st.Flushes(),
		PerShard:      st.ShardStats(),
		ResidentBytes: st.ResidentBytes(),
		LastOpen: storeOpenStatsJSON{
			ScannedFrames: op.ScannedFrames,
			LegacyFrames:  op.LegacyFrames,
			DurationMs:    float64(op.Duration.Microseconds()) / 1e3,
		},
	}
	if out.Flushes > 0 {
		out.FramesPerFlush = float64(out.Appended) / float64(out.Flushes)
	}
	return out
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	eng, gen := s.bench.Evaluator().Engine(), s.bench.Evaluator().Dispatcher()
	st := eng.Stats()
	gst := gen.Stats()
	routes := make(map[string]routeStatsJSON, len(s.routes))
	for pattern, rs := range s.routes {
		routes[pattern] = rs.snapshot()
	}
	s.mu.Lock()
	tenants := len(s.tenants)
	s.mu.Unlock()
	var storeStats *storeStatsJSON
	if s.cfg.Store != nil {
		storeStats = storeStatsFor(s.cfg.Store)
	}
	writeJSON(w, http.StatusOK, statsResponse{
		Executor:  eng.Executor().Name(),
		Workers:   eng.Workers(),
		Executed:  st.Executed,
		CacheHits: st.CacheHits,
		StoreHits: st.StoreHits,

		CacheEntries:   st.CacheEntries,
		CacheBytes:     st.CacheBytes,
		CacheEvictions: st.CacheEvictions,

		GenInflight:        st.GenInflight,
		PipelineQueueDepth: st.QueueDepth,
		ExecBusy:           st.ExecBusy,

		Provider:         gen.Provider().Name(),
		Generated:        gst.Generated,
		GenCacheHits:     gst.CacheHits,
		GenStoreHits:     gst.StoreHits,
		GenErrors:        gst.Errors,
		PromptTokens:     int64(gst.Usage.PromptTokens),
		CompletionTokens: int64(gst.Usage.CompletionTokens),

		GenCacheEntries:   gst.CacheEntries,
		GenCacheBytes:     gst.CacheBytes,
		GenCacheEvictions: gst.CacheEvictions,

		UptimeSec: time.Since(s.start).Seconds(),
		Tenants:   tenants,
		Routes:    routes,
		Store:     storeStats,
	})
}

// evalRequest scores one problem: either a literal candidate answer,
// or the named zoo model's generated answer. Exactly one of Answer and
// Model must be set.
type evalRequest struct {
	Problem string `json:"problem"`
	Answer  string `json:"answer,omitempty"`
	Model   string `json:"model,omitempty"`
}

type evalResponse struct {
	Problem string     `json:"problem"`
	Model   string     `json:"model,omitempty"`
	Answer  string     `json:"answer"`
	Scores  evalScores `json:"scores"`
}

// evalScores are the six metrics of score.Metrics. encoding/json writes
// a struct's fields in declaration order and a map's keys sorted;
// score.Metrics is sorted and the fields follow it, so this writes the
// bytes a map[string]float64 of the six did, without reflecting over a
// map.
type evalScores struct {
	BLEU       float64 `json:"bleu"`
	EditDist   float64 `json:"edit_distance"`
	ExactMatch float64 `json:"exact_match"`
	KVExact    float64 `json:"kv_exact"`
	KVWildcard float64 `json:"kv_wildcard"`
	UnitTest   float64 `json:"unit_test"`
}

func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) {
	tn, ok := s.tenantFor(w, r)
	if !ok {
		return
	}
	if !s.admit(w, tn) {
		return
	}
	var req evalRequest
	if !decodeBody(w, r, &req) {
		return
	}
	p, ok := s.problems[req.Problem]
	if !ok {
		writeError(w, http.StatusNotFound, codeNotFound, fmt.Sprintf("unknown problem %q", req.Problem))
		return
	}
	if (req.Answer == "") == (req.Model == "") {
		writeError(w, http.StatusBadRequest, codeBadRequest, "exactly one of answer and model must be set")
		return
	}
	answer := req.Answer
	if req.Model != "" {
		m, ok := s.models[req.Model]
		if !ok {
			writeError(w, http.StatusNotFound, codeNotFound, fmt.Sprintf("unknown model %q", req.Model))
			return
		}
		resp, err := s.bench.Evaluator().Dispatcher().Generate(r.Context(), inference.Request{Model: m.Name, Problem: p})
		if err != nil {
			writeError(w, http.StatusBadGateway, codeBadGateway, "generation failed: "+err.Error())
			return
		}
		answer = llm.Postprocess(resp.Text)
	}
	sc := s.bench.Evaluator().Score(p, answer)
	writeJSON(w, http.StatusOK, evalResponse{
		Problem: p.ID,
		Model:   req.Model,
		Answer:  answer,
		Scores: evalScores{
			BLEU:       sc.BLEU,
			EditDist:   sc.EditDist,
			ExactMatch: sc.ExactMatch,
			KVExact:    sc.KVExact,
			KVWildcard: sc.KVWildcard,
			UnitTest:   sc.UnitTest,
		},
	})
}

type campaignRequest struct {
	// Experiments to run; empty means every experiment.
	Experiments []string `json:"experiments,omitempty"`
}

type campaignResponse struct {
	ID          string   `json:"id"`
	State       string   `json:"state"`
	Experiments []string `json:"experiments"`
	Completed   []string `json:"completed"`
	Error       string   `json:"error,omitempty"`
	// Outputs holds each completed experiment's rendered text.
	Outputs map[string]string `json:"outputs,omitempty"`
}

// campaignID derives a deterministic ID from the tenant and experiment
// set, so re-posting the same campaign — against this daemon or a
// restarted one — coalesces onto (or resumes) the same checkpointed
// run. The default tenant hashes the experiment set alone, keeping its
// IDs byte-identical to the pre-tenancy daemon; every other tenant's
// IDs mix the tenant in, so two tenants running the same experiments
// never collide on an ID (or a checkpoint directory).
func campaignID(tenant string, ids []string) string {
	sorted := append([]string(nil), ids...)
	sort.Strings(sorted)
	key := strings.Join(sorted, ",")
	if tenant != core.TenantDefault {
		key = tenant + "\x00" + key
	}
	sum := sha256.Sum256([]byte(key))
	return "c-" + hex.EncodeToString(sum[:6])
}

// campaignRetryAfter is the Retry-After hint for a full campaign
// queue: campaigns run for seconds, so an immediate retry would only
// find the same full queue.
const campaignRetryAfter = 2 * time.Second

func (s *Server) handleCampaignStart(w http.ResponseWriter, r *http.Request) {
	tn, ok := s.tenantFor(w, r)
	if !ok {
		return
	}
	if !s.admit(w, tn) {
		return
	}
	var req campaignRequest
	if !decodeBody(w, r, &req) {
		return
	}
	ids := req.Experiments
	if len(ids) == 0 {
		ids = core.ExperimentIDs
	}
	gens := s.bench.Experiments()
	for _, id := range ids {
		if _, ok := gens[id]; !ok {
			writeError(w, http.StatusBadRequest, codeBadRequest, fmt.Sprintf("unknown experiment %q", id))
			return
		}
	}

	id := campaignID(tn.name, ids)
	s.mu.Lock()
	c, ok := tn.campaigns[id]
	if ok {
		// A failed campaign must not wedge its ID: re-posting retries
		// it (from its checkpoints) instead of echoing the stale
		// failure forever.
		c.mu.Lock()
		if c.state == "failed" {
			ok = false
		}
		c.mu.Unlock()
	}
	if !ok {
		// Bounded admission: a fresh campaign takes a queue slot until
		// it finishes. A full queue is backpressure, not an error in
		// the campaign itself — 429 and come back.
		if s.cfg.CampaignQueue > 0 && s.campaignPending >= s.cfg.CampaignQueue {
			pending := s.campaignPending
			s.mu.Unlock()
			writeRetryError(w, http.StatusTooManyRequests, codeQueueFull,
				fmt.Sprintf("campaign queue is full (%d pending)", pending), campaignRetryAfter)
			return
		}
		state := "running"
		if s.campaignSem != nil {
			state = "queued"
		}
		c = &campaign{ID: id, Experiments: ids, tenant: tn.name, state: state}
		tn.campaigns[id] = c
		s.campaignPending++
		go s.runCampaign(tn, c)
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, s.campaignStatus(c, false))
}

// campaignMeta is persisted as campaign.json inside each campaign
// directory, so a restarted daemon can identify and resume on-disk
// campaigns it no longer holds in memory.
type campaignMeta struct {
	ID          string   `json:"id"`
	Experiments []string `json:"experiments"`
}

// runCampaign drives one checkpointed campaign in the background,
// routing fresh generations through the tenant's coalescing layer (so
// a campaign and a concurrent direct request share one computation,
// and campaign outputs warm the request cache). When the server bounds
// campaign concurrency, the campaign waits in state "queued" for a
// worker slot first; either way it releases its admission-queue slot
// when it finishes.
func (s *Server) runCampaign(tn *tenantState, c *campaign) {
	defer func() {
		s.mu.Lock()
		s.campaignPending--
		s.mu.Unlock()
	}()
	if s.campaignSem != nil {
		s.campaignSem <- struct{}{}
		defer func() { <-s.campaignSem }()
		c.mu.Lock()
		c.state = "running"
		c.mu.Unlock()
	}
	dir := filepath.Join(s.campaignRoot(tn.name), c.ID)
	fail := func(err error) {
		c.mu.Lock()
		c.state = "failed"
		c.errMsg = err.Error()
		c.mu.Unlock()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fail(err)
		return
	}
	meta, err := json.Marshal(campaignMeta{ID: c.ID, Experiments: c.Experiments})
	if err != nil {
		fail(err)
		return
	}
	// Temp-file + rename, like every other checkpoint write: a crash
	// mid-write must not leave torn JSON that hides the campaign from a
	// restarted daemon.
	metaPath := filepath.Join(dir, "campaign.json")
	if err := os.WriteFile(metaPath+".tmp", meta, 0o644); err != nil {
		fail(err)
		return
	}
	if err := os.Rename(metaPath+".tmp", metaPath); err != nil {
		fail(err)
		return
	}
	_, err = s.bench.RunCampaign(dir, c.Experiments, nil,
		func(id string) (string, error) { return s.experiment(tn, id) },
		func(id string, skipped bool) {
			if skipped {
				// A checkpoint replay warms the request cache too.
				if out, err := readCampaignOutput(dir, id); err == nil {
					s.mu.Lock()
					if _, ok := tn.results[id]; !ok {
						tn.results[id] = out
					}
					s.mu.Unlock()
				}
			}
			c.mu.Lock()
			c.completed = append(c.completed, id)
			c.mu.Unlock()
		})
	if err != nil {
		fail(err)
		return
	}
	c.mu.Lock()
	c.state = "done"
	c.mu.Unlock()
}

func (s *Server) handleCampaignStatus(w http.ResponseWriter, r *http.Request) {
	tn, ok := s.tenantFor(w, r)
	if !ok {
		return
	}
	id := r.PathValue("id")
	s.mu.Lock()
	c, ok := tn.campaigns[id]
	s.mu.Unlock()
	if !ok {
		// Not in memory — maybe a previous daemon's campaign. Serve its
		// on-disk checkpoint state as "interrupted": re-posting the same
		// experiment set resumes it. The lookup stays inside this
		// tenant's checkpoint root, so one tenant can never read
		// another's campaign by guessing its ID.
		if resp, err := s.campaignFromDisk(tn.name, id); err == nil {
			writeJSON(w, http.StatusOK, resp)
			return
		}
		writeError(w, http.StatusNotFound, codeNotFound, fmt.Sprintf("unknown campaign %q", id))
		return
	}
	writeJSON(w, http.StatusOK, s.campaignStatus(c, true))
}

// campaignFromDisk reconstructs a campaign's status from its directory
// under the tenant's checkpoint root after a daemon restart.
func (s *Server) campaignFromDisk(tenant, id string) (campaignResponse, error) {
	dir := filepath.Join(s.campaignRoot(tenant), id)
	data, err := os.ReadFile(filepath.Join(dir, "campaign.json"))
	if err != nil {
		return campaignResponse{}, err
	}
	var meta campaignMeta
	if err := json.Unmarshal(data, &meta); err != nil {
		return campaignResponse{}, err
	}
	completed, err := core.CampaignCompleted(dir)
	if err != nil {
		return campaignResponse{}, err
	}
	state := "interrupted"
	if len(completed) >= len(meta.Experiments) {
		state = "done"
	}
	resp := campaignResponse{
		ID:          meta.ID,
		State:       state,
		Experiments: meta.Experiments,
		Completed:   completed,
		Outputs:     make(map[string]string, len(completed)),
	}
	for _, eid := range completed {
		if out, err := readCampaignOutput(dir, eid); err == nil {
			resp.Outputs[eid] = out
		}
	}
	return resp, nil
}

func (s *Server) campaignStatus(c *campaign, includeOutputs bool) campaignResponse {
	c.mu.Lock()
	resp := campaignResponse{
		ID:          c.ID,
		State:       c.state,
		Experiments: c.Experiments,
		Completed:   append([]string(nil), c.completed...),
		Error:       c.errMsg,
	}
	c.mu.Unlock()
	// Outputs ride along only once the campaign stops running: polls of
	// an in-flight campaign need state/completed, not a re-read of every
	// checkpoint file shipped on each request.
	if includeOutputs && resp.State != "running" && resp.State != "queued" && len(resp.Completed) > 0 {
		dir := filepath.Join(s.campaignRoot(c.tenant), c.ID)
		outputs := make(map[string]string, len(resp.Completed))
		for _, id := range resp.Completed {
			data, err := readCampaignOutput(dir, id)
			if err == nil {
				outputs[id] = data
			}
		}
		resp.Outputs = outputs
	}
	return resp
}

func readCampaignOutput(dir, id string) (string, error) {
	data, err := os.ReadFile(filepath.Join(dir, id+".txt"))
	return string(data), err
}

// jsonContentType is every JSON reply's Content-Type value. Handlers
// share the slice instead of allocating one per reply; nothing writes
// into a header's value slice.
var jsonContentType = []string{"application/json"}

// writeJSON writes v as the reply: indented by two spaces and ending in
// a newline, the bytes json.Encoder with SetIndent("", "  ") writes,
// with an explicit Content-Length and in one Write. v is marshalled
// before anything is written, so a value that cannot be encoded is a
// 500 internal envelope, not a 200 with an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	raw, err := json.Marshal(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, codeInternal, "encode reply: "+err.Error())
		return
	}
	buf := getBuffer()
	defer putBuffer(buf)
	json.Indent(buf, raw, "", "  ") // raw is valid JSON: Indent cannot fail
	buf.WriteByte('\n')
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h.Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	w.Write(buf.Bytes())
}
