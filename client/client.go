// Package client is the typed Go client for cloudeval serve's /v1 API:
// one method per endpoint, the shared error envelope decoded into
// *APIError, and tenancy attached per client. It is the programmatic
// face of the service tier — cloudeval loadgen drives its load through
// it and the server's own tests speak it instead of hand-rolled HTTP.
//
//	c := client.New("http://127.0.0.1:8080", client.WithTenant("team-a"))
//	res, err := c.Eval(ctx, client.EvalRequest{Problem: "k8s-pod-001", Answer: myYAML})
//
// Every error response is a *APIError carrying the HTTP status, the
// machine-readable envelope code (e.g. "rate_limited",
// "campaign_queue_full", "not_found") and, for 429s, the server's
// Retry-After as a duration.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Client talks to one daemon as one tenant. Construct
// with New; the zero value is not usable.
type Client struct {
	base   string
	tenant string
	http   *http.Client
}

// Option configures a Client.
type Option func(*Client)

// WithTenant sends every request as the named tenant (the X-Tenant
// header). An empty name means the server's default tenant.
func WithTenant(name string) Option { return func(c *Client) { c.tenant = name } }

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, test doubles).
func WithHTTPClient(h *http.Client) Option { return func(c *Client) { c.http = h } }

// New builds a client for the daemon rooted at base
// (e.g. "http://127.0.0.1:8080" — no trailing /v1).
func New(base string, opts ...Option) *Client {
	c := &Client{base: strings.TrimRight(base, "/"), http: http.DefaultClient}
	for _, o := range opts {
		o(c)
	}
	return c
}

// APIError is a non-2xx response: the HTTP status, the error
// envelope's code and message, and the correlation/backpressure
// headers. Plain-text error bodies (proxies, panics upstream of the
// envelope) surface with an empty Code and the body as Message.
type APIError struct {
	Status     int
	Code       string
	Message    string
	RequestID  string
	RetryAfter time.Duration // from Retry-After; 0 when absent
}

func (e *APIError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("cloudevald: %d %s: %s", e.Status, e.Code, e.Message)
	}
	return fmt.Sprintf("cloudevald: %d: %s", e.Status, e.Message)
}

// IsRateLimited reports whether err is an APIError carrying a 429.
func IsRateLimited(err error) bool {
	ae, ok := err.(*APIError)
	return ok && ae.Status == http.StatusTooManyRequests
}

// EvalRequest scores one problem: exactly one of Answer (a literal
// candidate) and Model (a zoo model whose generation is scored) must
// be set.
type EvalRequest struct {
	Problem string `json:"problem"`
	Answer  string `json:"answer,omitempty"`
	Model   string `json:"model,omitempty"`
}

// EvalResponse carries the scored answer and all six metrics.
type EvalResponse struct {
	Problem string `json:"problem"`
	Model   string `json:"model,omitempty"`
	Answer  string `json:"answer"`
	Scores  Scores `json:"scores"`
}

// CampaignStatus is one campaign's lifecycle snapshot: state is
// "queued", "running", "done", "failed" or (after a daemon restart)
// "interrupted"; Outputs ride along once the campaign stops running.
type CampaignStatus struct {
	ID          string            `json:"id"`
	State       string            `json:"state"`
	Experiments []string          `json:"experiments"`
	Completed   []string          `json:"completed"`
	Error       string            `json:"error,omitempty"`
	Outputs     map[string]string `json:"outputs,omitempty"`
}

// RouteStats is one route's serving counters from GET /v1/stats.
type RouteStats struct {
	Requests int64   `json:"requests"`
	Errors   int64   `json:"errors,omitempty"`
	AvgMs    float64 `json:"avg_latency_ms"`
}

// Stats mirrors GET /v1/stats: engine counters, inference counters and
// per-route serving counters.
type Stats struct {
	Executor  string `json:"executor"`
	Workers   int    `json:"workers"`
	Executed  int64  `json:"executed"`
	CacheHits int64  `json:"cache_hits"`
	StoreHits int64  `json:"store_hits"`

	// Pipeline depth gauges: instantaneous occupancy of the streaming
	// generation→execution pipeline; zero when no campaign is running.
	GenInflight        int64 `json:"gen_inflight"`
	PipelineQueueDepth int64 `json:"pipeline_queue_depth"`
	ExecBusy           int64 `json:"exec_busy"`

	// The engine's and the dispatcher's in-memory caches: resident
	// entries, their charge against the cache's fixed budget, and
	// entries dropped to stay under it.
	CacheEntries      int   `json:"cache_entries"`
	CacheBytes        int64 `json:"cache_bytes"`
	CacheEvictions    int64 `json:"cache_evictions"`
	GenCacheEntries   int   `json:"gen_cache_entries"`
	GenCacheBytes     int64 `json:"gen_cache_bytes"`
	GenCacheEvictions int64 `json:"gen_cache_evictions"`

	Provider         string `json:"provider"`
	Generated        int64  `json:"generated"`
	GenCacheHits     int64  `json:"gen_cache_hits"`
	GenStoreHits     int64  `json:"gen_store_hits"`
	GenErrors        int64  `json:"gen_errors,omitempty"`
	PromptTokens     int64  `json:"prompt_tokens"`
	CompletionTokens int64  `json:"completion_tokens"`

	UptimeSec float64               `json:"uptime_sec"`
	Tenants   int                   `json:"tenants"`
	Routes    map[string]RouteStats `json:"routes"`

	// Store is present when the daemon runs with a persistent store:
	// its shard layout and append counters.
	Store *StoreStats `json:"store,omitempty"`
}

// ShardStats is one store shard's record and append counters.
type ShardStats struct {
	Records     int   `json:"records"`
	Generations int   `json:"generations"`
	Appended    int64 `json:"appended"`
	Flushes     int64 `json:"flushes"`
}

// StoreStats is the persistent store block of GET /v1/stats.
// FramesPerFlush is Appended/Flushes — how many records each write
// syscall carried on average (1.0: each frame is its own write).
type StoreStats struct {
	Shards         int          `json:"shards"`
	Records        int          `json:"records"`
	Generations    int          `json:"generations"`
	Appended       int64        `json:"appended"`
	Flushes        int64        `json:"flushes"`
	FramesPerFlush float64      `json:"frames_per_flush"`
	PerShard       []ShardStats `json:"per_shard"`

	// Out-of-core economics: resident memory (the offset index —
	// payloads live on disk) and how the last Open rebuilt the index.
	ResidentBytes int64          `json:"resident_bytes"`
	LastOpen      StoreOpenStats `json:"last_open"`
}

// StoreOpenStats describes how the store's last Open rebuilt its
// index: frames scanned, how many of them were in the JSON payload
// layout (read, no longer written), and the rebuild wall time.
type StoreOpenStats struct {
	ScannedFrames int     `json:"scanned_frames"`
	LegacyFrames  int     `json:"legacy_frames"`
	DurationMs    float64 `json:"duration_ms"`
}

// Eval scores one problem via POST /v1/eval.
func (c *Client) Eval(ctx context.Context, req EvalRequest) (EvalResponse, error) {
	var out EvalResponse
	err := c.postJSON(ctx, "/v1/eval", req, &out)
	return out, err
}

// StartCampaign starts (or resumes) an async campaign over the given
// experiment IDs via POST /v1/campaign; nil or empty means every
// experiment. The returned status carries the deterministic campaign
// ID to poll.
func (c *Client) StartCampaign(ctx context.Context, experiments []string) (CampaignStatus, error) {
	var out CampaignStatus
	err := c.postJSON(ctx, "/v1/campaign", struct {
		Experiments []string `json:"experiments,omitempty"`
	}{experiments}, &out)
	return out, err
}

// Campaign polls one campaign's status via GET /v1/campaign/{id}.
func (c *Client) Campaign(ctx context.Context, id string) (CampaignStatus, error) {
	var out CampaignStatus
	err := c.getJSON(ctx, "/v1/campaign/"+url.PathEscape(id), &out)
	return out, err
}

// WaitCampaign polls a campaign until it leaves the queued/running
// states, sleeping poll between polls (50ms when poll <= 0), and
// returns its final status. A "failed" state is returned as an error
// carrying the campaign's message; ctx bounds the wait.
func (c *Client) WaitCampaign(ctx context.Context, id string, poll time.Duration) (CampaignStatus, error) {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	for {
		st, err := c.Campaign(ctx, id)
		if err != nil {
			return st, err
		}
		switch st.State {
		case "queued", "running":
		case "failed":
			return st, fmt.Errorf("campaign %s failed: %s", id, st.Error)
		default:
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(poll):
		}
	}
}

// Leaderboard fetches the rendered Table 4 via GET /v1/leaderboard —
// the raw text body, byte-identical to core.Benchmark.Table4.
func (c *Client) Leaderboard(ctx context.Context) (string, error) {
	return c.getText(ctx, "/v1/leaderboard")
}

// FamilyLeaderboard fetches the per-workload-family rows via
// GET /v1/leaderboard/families.
func (c *Client) FamilyLeaderboard(ctx context.Context) (string, error) {
	return c.getText(ctx, "/v1/leaderboard/families")
}

// Stats fetches the daemon's counters via GET /v1/stats.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var out Stats
	err := c.getJSON(ctx, "/v1/stats", &out)
	return out, err
}

// Healthz checks GET /healthz.
func (c *Client) Healthz(ctx context.Context) error {
	_, err := c.getText(ctx, "/healthz")
	return err
}

func (c *Client) newRequest(ctx context.Context, method, path string, body io.Reader) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	if c.tenant != "" {
		req.Header.Set("X-Tenant", c.tenant)
	}
	return req, nil
}

func (c *Client) postJSON(ctx context.Context, path string, in, out any) error {
	payload, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := c.newRequest(ctx, http.MethodPost, path, bytes.NewReader(payload))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req, out)
}

func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	req, err := c.newRequest(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	return c.do(req, out)
}

func (c *Client) getText(ctx context.Context, path string) (string, error) {
	req, err := c.newRequest(ctx, http.MethodGet, path, nil)
	if err != nil {
		return "", err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode/100 != 2 {
		return "", apiError(resp, body)
	}
	return string(body), nil
}

func (c *Client) do(req *http.Request, out any) error {
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf := bodyPool.Get().(*bytes.Buffer)
	defer putBody(buf)
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	body := buf.Bytes()
	if resp.StatusCode/100 != 2 {
		return apiError(resp, body)
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("cloudevald: decode %s response: %w", req.URL.Path, err)
	}
	return nil
}

// maxPooledBody is the largest body buffer putBody keeps: a /v1/eval
// reply is a few KB, a campaign's outputs can be far more.
const maxPooledBody = 64 << 10

// bodyPool holds the buffers JSON replies are read into. json.Unmarshal
// and apiError copy out what they keep, so a buffer is free again once
// its reply is decoded.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func putBody(b *bytes.Buffer) {
	if b.Cap() > maxPooledBody {
		return
	}
	b.Reset()
	bodyPool.Put(b)
}

// apiError decodes the shared error envelope; a body that is not the
// envelope (a proxy's plain text, a truncated response) becomes an
// APIError with the raw body as message and no code.
func apiError(resp *http.Response, body []byte) *APIError {
	ae := &APIError{
		Status:    resp.StatusCode,
		Message:   strings.TrimSpace(string(body)),
		RequestID: resp.Header.Get("X-Request-ID"),
	}
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err == nil && env.Error.Code != "" {
		ae.Code = env.Error.Code
		ae.Message = env.Error.Message
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.ParseInt(ra, 10, 64); err == nil && secs > 0 {
			ae.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return ae
}
