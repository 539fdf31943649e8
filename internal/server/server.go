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
// contract byte-for-byte). Experiment results, campaign IDs and
// checkpoint directories are tenant-scoped; the engine, store and
// dispatcher underneath are shared content-addressed tiers. Admission
// control guards the two POST endpoints: a per-tenant token bucket and
// a bounded campaign queue, both answering 429 + Retry-After when
// exhausted, so one tenant's flood degrades into polite backpressure
// instead of starving the fleet.
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
// Experiment outputs live in one memo.LRU keyed by (tenant, experiment)
// under a fixed byte budget: concurrent requests for the same
// experiment share one computation, completed outputs are served from
// memory, and a failed one is never kept. Campaigns are checkpointed
// via core.Benchmark.RunCampaign under the server's data directory,
// whose manifest is the campaign's one record: a restarted daemon
// reads status from it and resumes instead of recomputing.
package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"maps"
	"net/http"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"cloudeval/internal/core"
	"cloudeval/internal/dataset"
	"cloudeval/internal/inference"
	"cloudeval/internal/llm"
	"cloudeval/internal/memo"
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
	// append counters. Nil (a store-less daemon) simply
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
	results *memo.LRU[tenantKey, string] // experiment outputs

	problems map[string]dataset.Problem
	models   map[string]llm.Model

	mu              sync.Mutex
	campaigns       map[tenantKey]*campaign
	campaignPending int           // campaigns admitted and not yet finished
	campaignSem     chan struct{} // nil = unbounded concurrent campaigns

	start time.Time
}

// tenantKey scopes an experiment or campaign ID to its tenant.
type tenantKey struct{ tenant, id string }

// resultsBudget bounds the experiment result cache. All 15 outputs of
// one full campaign total about 15 KB, so hundreds of tenants' full
// campaigns fit before anything is evicted.
const resultsBudget = 16 << 20

var resultsSeed = maphash.MakeSeed()

func resultsShard(k tenantKey) uint32 {
	return uint32(maphash.String(resultsSeed, k.tenant) ^ maphash.String(resultsSeed, k.id))
}

// campaign tracks one async experiment run.
type campaign struct {
	key         tenantKey
	experiments []string

	mu        sync.Mutex
	state     string // "queued", "running", "done", "failed"
	completed []string
	outputs   map[string]string
	errMsg    string
}

// NewWithConfig builds a server over bench with admission control per
// cfg. dataDir roots campaign checkpoints (the default tenant's under
// <dataDir>/campaigns/<id>, other tenants' under
// <dataDir>/tenants/<tenant>/campaigns/<id>).
func NewWithConfig(bench *core.Benchmark, dataDir string, cfg Config) *Server {
	s := &Server{
		bench:     bench,
		dataDir:   dataDir,
		mux:       http.NewServeMux(),
		cfg:       cfg,
		limiter:   newTenantLimiter(cfg.TenantRate, cfg.TenantBurst),
		routes:    make(map[string]*routeStats),
		problems:  make(map[string]dataset.Problem, len(bench.Problems)),
		models:    make(map[string]llm.Model, len(bench.Models)),
		results:   memo.NewLRU[tenantKey, string](resultsShard, resultsBudget),
		campaigns: make(map[tenantKey]*campaign),
		start:     time.Now(),
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
func (s *Server) admit(w http.ResponseWriter, tenant string) bool {
	ok, retry := s.limiter.allow(tenant)
	if !ok {
		writeRetryError(w, http.StatusTooManyRequests, codeRateLimited,
			fmt.Sprintf("tenant %q is over its request rate", tenant), retry)
		return false
	}
	return true
}

// experiment returns the tenant's output of experiment id, computed by
// core.Benchmark.Experiment on a miss. Concurrent callers share one
// computation and a failed one is not kept. Distinct tenants compute
// independently — the shared engine and dispatcher underneath make the
// recompute a cache walk, and the serving layer never hands one tenant
// an object another tenant's request produced.
func (s *Server) experiment(tenant, id string) (string, error) {
	return s.result(tenant, id, s.bench.Experiment)
}

// result is the result cache's one entry point: the tenant's output of
// experiment id, computed by fn on a miss. Each entry is charged its
// key and output text.
func (s *Server) result(tenant, id string, fn func(id string) (string, error)) (string, error) {
	k := tenantKey{tenant, id}
	out, err, _ := s.results.Do(k, func() (string, int64, error) {
		out, err := fn(id)
		return out, memo.EntryOverhead + int64(len(k.tenant)+len(k.id)+len(out)), err
	})
	return out, err
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleLeaderboard serves Table 4 byte-identical to
// core.Benchmark.Table4, cached and coalesced per tenant.
func (s *Server) handleLeaderboard(w http.ResponseWriter, r *http.Request) {
	tenant, ok := s.tenantFor(w, r)
	if !ok {
		return
	}
	out, err := s.experiment(tenant, "table4")
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
	tenant, ok := s.tenantFor(w, r)
	if !ok {
		return
	}
	out, err := s.experiment(tenant, "families")
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

	// Serving-layer counters: daemon uptime, tenants holding a campaign
	// in memory, and per-route request/latency aggregates.
	UptimeSec float64                   `json:"uptime_sec"`
	Tenants   int                       `json:"tenants"`
	Routes    map[string]routeStatsJSON `json:"routes"`

	// Store is the persistent store's shard layout and append
	// counters; omitted when the daemon runs store-less.
	Store *storeStatsJSON `json:"store,omitempty"`
}

// storeStatsJSON is the GET /v1/stats view of the sharded store:
// layout, aggregate counters, and the frames-per-flush ratio.
type storeStatsJSON struct {
	Shards      int   `json:"shards"`
	Records     int   `json:"records"`
	Generations int   `json:"generations"`
	Appended    int64 `json:"appended"`
	Flushes     int64 `json:"flushes"`
	// FramesPerFlush is Appended/Flushes, frames per write syscall:
	// 1.0 while each frame is its own write.
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
	tenants := make(map[string]struct{})
	for k := range s.campaigns {
		tenants[k.tenant] = struct{}{}
	}
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
		Tenants:   len(tenants),
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
	tenant, ok := s.tenantFor(w, r)
	if !ok {
		return
	}
	if !s.admit(w, tenant) {
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
	tenant, ok := s.tenantFor(w, r)
	if !ok {
		return
	}
	if !s.admit(w, tenant) {
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
	for _, id := range ids {
		if !slices.Contains(core.ExperimentIDs, id) {
			writeError(w, http.StatusBadRequest, codeBadRequest, fmt.Sprintf("unknown experiment %q", id))
			return
		}
	}

	k := tenantKey{tenant, campaignID(tenant, ids)}
	s.mu.Lock()
	c, ok := s.campaigns[k]
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
		c = &campaign{
			key:         k,
			experiments: ids,
			state:       state,
			outputs:     make(map[string]string, len(ids)),
		}
		s.campaigns[k] = c
		s.campaignPending++
		go s.runCampaign(c)
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, c.status(false))
}

// runCampaign drives one checkpointed campaign in the background,
// routing fresh generations through the result cache (so a campaign
// and a concurrent direct request share one computation) and putting
// every output it completes, replayed ones too, into that cache. When
// the server bounds campaign concurrency, the campaign waits in state
// "queued" for a worker slot first; either way it releases its
// admission-queue slot when it finishes.
func (s *Server) runCampaign(c *campaign) {
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
	tenant := c.key.tenant
	dir := filepath.Join(s.campaignRoot(tenant), c.key.id)
	_, err := s.bench.RunCampaign(dir, c.experiments, nil,
		func(id string) (string, error) { return s.experiment(tenant, id) },
		func(id, out string) {
			s.result(tenant, id, func(string) (string, error) { return out, nil })
			c.mu.Lock()
			c.completed = append(c.completed, id)
			c.outputs[id] = out
			c.mu.Unlock()
		})
	c.mu.Lock()
	if err != nil {
		c.state, c.errMsg = "failed", err.Error()
	} else {
		c.state = "done"
	}
	c.mu.Unlock()
}

func (s *Server) handleCampaignStatus(w http.ResponseWriter, r *http.Request) {
	tenant, ok := s.tenantFor(w, r)
	if !ok {
		return
	}
	id := r.PathValue("id")
	// The path segment is unescaped, so anything but an ID campaignID
	// could have made — "..%2F…" above all — is refused before it
	// reaches a map or a path.
	if validCampaignID(id) {
		s.mu.Lock()
		c, ok := s.campaigns[tenantKey{tenant, id}]
		s.mu.Unlock()
		if ok {
			writeJSON(w, http.StatusOK, c.status(true))
			return
		}
		// Not in memory — maybe a previous daemon's campaign. Serve its
		// manifest as "interrupted" (re-posting the same experiment
		// set resumes it) or "done". The lookup stays inside this
		// tenant's checkpoint root, so one tenant can never read
		// another's campaign by guessing its ID.
		rec, err := core.ReadCampaign(filepath.Join(s.campaignRoot(tenant), id))
		if err == nil && len(rec.Experiments) > 0 {
			state := "interrupted"
			if len(rec.Completed) >= len(rec.Experiments) {
				state = "done"
			}
			writeJSON(w, http.StatusOK, campaignResponse{
				ID:          id,
				State:       state,
				Experiments: rec.Experiments,
				Completed:   rec.Completed,
				Outputs:     rec.Outputs,
			})
			return
		}
	}
	writeError(w, http.StatusNotFound, codeNotFound, fmt.Sprintf("unknown campaign %q", id))
}

// validCampaignID reports whether id has campaignID's shape: "c-" and
// 12 lowercase hex digits.
func validCampaignID(id string) bool {
	if len(id) != 14 || id[:2] != "c-" {
		return false
	}
	for i := 2; i < len(id); i++ {
		if c := id[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// status is c's reply. Outputs ride along only once the campaign stops
// running: polls of an in-flight campaign need state and completed,
// not every output shipped on each request.
func (c *campaign) status(includeOutputs bool) campaignResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	resp := campaignResponse{
		ID:          c.key.id,
		State:       c.state,
		Experiments: c.experiments,
		Completed:   slices.Clone(c.completed),
		Error:       c.errMsg,
	}
	if includeOutputs && c.state != "running" && c.state != "queued" && len(c.completed) > 0 {
		resp.Outputs = maps.Clone(c.outputs)
	}
	return resp
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
