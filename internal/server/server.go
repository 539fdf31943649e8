// Package server implements the HTTP service cloudeval serve runs: the
// CloudEval-YAML benchmark as a long-lived, multi-tenant daemon over a
// shared engine and persistent evaluation store. Endpoints (documented
// in detail in API.md at the repository root):
//
//	POST /v1/eval            score one answer (or one model's answer) on one problem
//	POST /v1/campaign        start (or resume) an async experiment campaign
//	GET  /v1/campaign/{id}   poll campaign status and outputs
//	GET  /v1/leaderboard     Table 4, rendered once (byte-identical to core.Benchmark)
//	GET  /v1/leaderboard/families  per-workload-family rows (one column per scenario backend)
//	GET  /v1/stats           engine counters (executed / cache / store hits),
//	                         inference counters (generated / generation cache and
//	                         store hits / metered token usage) and per-route
//	                         request/latency counters
//	GET  /healthz            liveness
//
// Every request belongs to a tenant (X-Tenant header or ?tenant=;
// absent means the default tenant, which keeps the single-tenant wire
// contract byte-for-byte). Campaign IDs and checkpoint directories are
// tenant-scoped; the engine, store and dispatcher underneath are
// shared content-addressed tiers, and so are experiment outputs, which
// depend on the benchmark alone. Admission control guards the two POST
// endpoints: a per-tenant token bucket and a bounded campaign queue,
// both answering 429 + Retry-After when exhausted, so one tenant's
// flood degrades into polite backpressure instead of starving the
// fleet.
//
// The wire format is declared once, in cloudeval/client: the server
// decodes request bodies into client.EvalRequest and
// client.CampaignRequest and writes client.CampaignStatus, client.Stats
// and, for every error, the one envelope client.ErrorBody,
// {"error":{"code","message"}}. The eval reply alone is written from
// this package's evalResponse (see there).
//
// The inference provider — sim zoo, replayed trace, or live HTTP
// endpoint — is configured at construction via the benchmark's
// evaluator (core.New); every model generation the server performs
// routes through its dispatcher and generation cache.
//
// Experiment outputs come from core.Benchmark.Experiment, which renders
// each once per benchmark and keeps no failed rendering; the server
// holds no copy. Campaigns are checkpointed via
// core.Benchmark.RunCampaign under the server's data directory,
// whose manifest is the campaign's one record: a restarted daemon
// reads status from it and resumes instead of recomputing.
package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"cloudeval/client"
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

	problems map[string]dataset.Problem
	models   map[string]llm.Model

	mu              sync.Mutex
	campaigns       map[tenantKey]*campaign
	campaignPending int           // campaigns admitted and not yet finished
	campaignSem     chan struct{} // nil = unbounded concurrent campaigns

	start time.Time
}

// tenantKey scopes a campaign ID to its tenant.
type tenantKey struct{ tenant, id string }

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
	s.handle("GET /v1/leaderboard", s.handleExperiment("table4"))
	s.handle("GET /v1/leaderboard/families", s.handleExperiment("families"))
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

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleExperiment serves experiment id's rendering as text, rendered
// once by core.Benchmark.Experiment. GET /v1/leaderboard serves
// "table4", byte-identical to core.Benchmark.Table4; GET
// /v1/leaderboard/families serves "families", the per-workload-family
// breakdown (core.Benchmark.FamilyLeaderboard), with one column per
// registered scenario backend, the extension families the pinned
// Table 4 excludes included. Both share the ZeroShot campaign, so
// serving both costs one evaluation. The tenant is validated, though
// every tenant gets the one rendering.
func (s *Server) handleExperiment(id string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if _, ok := s.tenantFor(w, r); !ok {
			return
		}
		out, err := s.bench.Experiment(id)
		if err != nil {
			writeError(w, http.StatusInternalServerError, codeInternal, err.Error())
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, out)
	}
}

// StoreStats is the store block of GET /v1/stats: st's shard layout,
// append counters, frames per flush and last Open. cloudeval prints
// its store lines from the same value.
func StoreStats(st *store.Store) *client.StoreStats {
	op := st.LastOpen()
	out := &client.StoreStats{
		Shards:        st.Shards(),
		Records:       st.Len(),
		Generations:   st.GenLen(),
		Appended:      st.Appended(),
		Flushes:       st.Flushes(),
		ResidentBytes: st.ResidentBytes(),
		LastOpen: client.StoreOpenStats{
			ScannedFrames: op.ScannedFrames,
			DurationMs:    float64(op.Duration.Microseconds()) / 1e3,
		},
	}
	if out.Flushes > 0 {
		out.FramesPerFlush = float64(out.Appended) / float64(out.Flushes)
	}
	for _, sh := range st.ShardStats() {
		out.PerShard = append(out.PerShard, client.ShardStats(sh))
	}
	return out
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	eng, gen := s.bench.Evaluator().Engine(), s.bench.Evaluator().Dispatcher()
	st := eng.Stats()
	gst := gen.Stats()
	routes := make(map[string]client.RouteStats, len(s.routes))
	for pattern, rs := range s.routes {
		routes[pattern] = rs.snapshot()
	}
	s.mu.Lock()
	tenants := make(map[string]struct{})
	for k := range s.campaigns {
		tenants[k.tenant] = struct{}{}
	}
	s.mu.Unlock()
	var storeStats *client.StoreStats
	if s.cfg.Store != nil {
		storeStats = StoreStats(s.cfg.Store)
	}
	writeJSON(w, http.StatusOK, client.Stats{
		Executor:  "pool",
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

// evalResponse is client.EvalResponse's wire form, and the one reply
// the server writes from a struct of its own. client.Scores is a map,
// because the benchmark harness in bench/ indexes it by metric name;
// encoding a map reflects over it on every request, where evalScores
// writes the same bytes from fields (TestEvalReplyBytes,
// TestEvalHandlerAllocs).
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
	var req client.EvalRequest
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
	var req client.CampaignRequest
	if !decodeBody(w, r, &req) {
		return
	}
	ids := req.Experiments
	if len(ids) == 0 {
		ids = core.ExperimentIDs
	}
	if err := core.CheckExperiments(ids); err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
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

// runCampaign drives one checkpointed campaign in the background;
// its fresh experiments render through core.Benchmark.Experiment, so a
// campaign and a concurrent direct request share one rendering. When
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
	dir := filepath.Join(s.campaignRoot(c.key.tenant), c.key.id)
	_, err := s.bench.RunCampaign(dir, c.experiments, func(id, out string) {
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
			writeJSON(w, http.StatusOK, client.CampaignStatus{
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
func (c *campaign) status(includeOutputs bool) client.CampaignStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	resp := client.CampaignStatus{
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
