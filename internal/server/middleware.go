package server

import (
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// Request-ID middleware and per-route counters. Every response carries
// an X-Request-ID — the caller's, echoed, when it sent a plausible
// one; a generated one otherwise — so a request can be correlated
// across client logs, loadgen traces and daemon output. Each route
// keeps a request count, an error count and cumulative latency,
// surfaced by GET /v1/stats.

// idSeed is a per-process random prefix; generated request IDs are
// seed-counter, unique within and (with high probability) across
// daemon processes.
var (
	idSeed    = func() string { var b [4]byte; rand.Read(b[:]); return hex.EncodeToString(b[:]) }()
	idCounter atomic.Int64
)

// requestIDHeader is X-Request-ID in canonical form, which Header.Get
// and Header.Set look up without allocating the canonical key; on the
// wire the name is the same, since Set canonicalises it anyway.
const requestIDHeader = "X-Request-Id"

// validRequestID bounds what we echo back: printable ASCII without
// separators, at most 128 bytes. Anything else gets a generated ID
// instead — a response header is no place for caller-controlled
// control characters.
func validRequestID(id string) bool {
	if id == "" || len(id) > 128 {
		return false
	}
	for i := 0; i < len(id); i++ {
		if c := id[i]; c <= ' ' || c > '~' {
			return false
		}
	}
	return true
}

// withRequestID wraps h so every response carries an X-Request-ID.
func withRequestID(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(requestIDHeader)
		if !validRequestID(id) {
			id = idSeed + "-" + strconv.FormatInt(idCounter.Add(1), 10)
		}
		w.Header().Set(requestIDHeader, id)
		h.ServeHTTP(w, r)
	})
}

// routeStats is one route's counters. All fields are atomics: routes
// are registered once at construction, so the map itself is read-only
// while serving.
type routeStats struct {
	requests atomic.Int64
	errors   atomic.Int64 // responses with status >= 400
	totalNs  atomic.Int64
}

// routeStatsJSON is the /v1/stats rendering of one route's counters.
type routeStatsJSON struct {
	Requests int64   `json:"requests"`
	Errors   int64   `json:"errors,omitempty"`
	AvgMs    float64 `json:"avg_latency_ms"`
}

func (rs *routeStats) snapshot() routeStatsJSON {
	n := rs.requests.Load()
	out := routeStatsJSON{Requests: n, Errors: rs.errors.Load()}
	if n > 0 {
		out.AvgMs = float64(rs.totalNs.Load()) / float64(n) / 1e6
	}
	return out
}

// statusRecorder captures the response status for the error counter.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(status int) {
	sr.status = status
	sr.ResponseWriter.WriteHeader(status)
}

// handle registers pattern on the server's mux wrapped in a per-route
// request/latency counter.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	rs := &routeStats{}
	s.routes[pattern] = rs
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(rec, r)
		rs.requests.Add(1)
		rs.totalNs.Add(time.Since(start).Nanoseconds())
		if rec.status >= 400 {
			rs.errors.Add(1)
		}
	})
}
