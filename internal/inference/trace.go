package inference

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// traceEntry is one line of a JSONL generation trace. The key is the
// request's content address; the descriptive fields (model, problem,
// options, prompt digest) make traces auditable and diffable but are
// not consulted on replay.
type traceEntry struct {
	Key         string  `json:"key"`
	Model       string  `json:"model"`
	Problem     string  `json:"problem,omitempty"`
	Variant     string  `json:"variant,omitempty"`
	Sample      int     `json:"sample,omitempty"`
	Temperature float64 `json:"temperature,omitempty"`
	Shots       int     `json:"shots,omitempty"`
	PromptSHA   string  `json:"prompt_sha256,omitempty"`

	Text             string `json:"text"`
	PromptTokens     int    `json:"prompt_tokens"`
	CompletionTokens int    `json:"completion_tokens"`
	LatencyNs        int64  `json:"latency_ns"`
}

// Record wraps an inner provider and appends every successful
// generation to a JSONL trace file, one entry per distinct request
// key. A transcript recorded from a real API (or from the sim zoo)
// then drives the whole pipeline deterministically through Replay.
type Record struct {
	inner Provider

	mu   sync.Mutex
	f    *os.File
	w    *bufio.Writer
	seen map[Key]bool
	// buf and enc are the reused JSONL encode path: one growable
	// buffer per recorder instead of a fresh json.Marshal allocation
	// per entry. Both are guarded by mu, like every append.
	buf bytes.Buffer
	enc *json.Encoder
	// writeErr latches the first failed append, surfaced on Close —
	// a sick disk must not fail the generation that produced the text.
	writeErr error
}

// NewRecord opens (or truncates) the trace at path and records every
// generation the inner provider serves.
func NewRecord(path string, inner Provider) (*Record, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	r := &Record{inner: inner, f: f, w: bufio.NewWriter(f), seen: make(map[Key]bool)}
	r.enc = json.NewEncoder(&r.buf)
	return r, nil
}

// Name implements Provider.
func (r *Record) Name() string { return "record(" + r.inner.Name() + ")" }

// Generate implements Provider: delegate to the inner provider, then
// persist the outcome. Errored generations are never recorded.
func (r *Record) Generate(ctx context.Context, req Request) (Response, error) {
	resp, err := r.inner.Generate(ctx, req)
	if err != nil {
		return resp, err
	}
	r.record(req, resp)
	return resp, nil
}

// traceObserver is how the dispatcher hands a recording provider the
// generations it serves from the persistent store — responses that
// never reach the provider chain but belong in a complete trace.
type traceObserver interface{ observe(Request, Response) }

// observe implements traceObserver.
func (r *Record) observe(req Request, resp Response) { r.record(req, resp) }

func (r *Record) record(req Request, resp Response) {
	pd := req.promptDigest()
	key := req.keyFor(pd)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seen[key] || r.writeErr != nil {
		return
	}
	// Encoder.Encode emits exactly json.Marshal plus a trailing
	// newline, into the recorder's reused buffer — same bytes on disk
	// as the Marshal-per-entry path it replaced.
	r.buf.Reset()
	if err := r.enc.Encode(traceEntry{
		Key:         hex.EncodeToString(key[:]),
		Model:       req.Model,
		Problem:     req.Problem.ID,
		Variant:     string(req.Problem.Variant),
		Sample:      req.Opts.Sample,
		Temperature: req.Opts.Temperature,
		Shots:       req.Opts.Shots,
		PromptSHA:   hex.EncodeToString(pd[:]),

		Text:             resp.Text,
		PromptTokens:     resp.Usage.PromptTokens,
		CompletionTokens: resp.Usage.CompletionTokens,
		LatencyNs:        resp.Latency.Nanoseconds(),
	}); err != nil {
		r.writeErr = err
		return
	}
	if _, err := r.w.Write(r.buf.Bytes()); err != nil {
		r.writeErr = fmt.Errorf("inference: record: %w", err)
		return
	}
	r.seen[key] = true
}

// Close flushes the trace, closes it and the inner provider, and
// surfaces any latched write error.
func (r *Record) Close() error {
	r.mu.Lock()
	flushErr := r.w.Flush()
	closeErr := r.f.Close()
	writeErr := r.writeErr
	r.mu.Unlock()
	innerErr := r.inner.Close()
	for _, err := range []error{writeErr, flushErr, closeErr, innerErr} {
		if err != nil {
			return err
		}
	}
	return nil
}

// Replay serves generations from a recorded JSONL trace, entirely
// offline: a request whose key is absent from the trace is an error,
// never a live call. This is what makes a recorded real-API
// transcript a deterministic, reviewable substitute for the API.
type Replay struct {
	path    string
	entries map[Key]Response
}

// OpenReplay loads the trace at path. Malformed lines are an error —
// a trace is a complete artifact, not a best-effort cache.
func OpenReplay(path string) (*Replay, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := &Replay{path: path, entries: make(map[Key]Response)}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e traceEntry
		if err := json.Unmarshal(line, &e); err != nil {
			return nil, fmt.Errorf("inference: %s:%d: %w", path, lineNo, err)
		}
		kb, err := hex.DecodeString(e.Key)
		if err != nil || len(kb) != sha256.Size {
			return nil, fmt.Errorf("inference: %s:%d: bad key %q", path, lineNo, e.Key)
		}
		var k Key
		copy(k[:], kb)
		r.entries[k] = Response{
			Text:    e.Text,
			Usage:   Usage{PromptTokens: e.PromptTokens, CompletionTokens: e.CompletionTokens},
			Latency: time.Duration(e.LatencyNs),
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return r, nil
}

// Name implements Provider.
func (r *Replay) Name() string { return "replay" }

// Generate implements Provider: serve from the trace or fail.
func (r *Replay) Generate(ctx context.Context, req Request) (Response, error) {
	if err := ctx.Err(); err != nil {
		return Response{}, err
	}
	resp, ok := r.entries[req.Key()]
	if !ok {
		return Response{}, fmt.Errorf("inference: trace %s has no entry for model %s problem %s (sample %d, temp %g, shots %d)",
			r.path, req.Model, req.Problem.ID, req.Opts.Sample, req.Opts.Temperature, req.Opts.Shots)
	}
	return resp, nil
}

// Close implements Provider.
func (r *Replay) Close() error { return nil }

// Len reports how many generations the trace holds.
func (r *Replay) Len() int { return len(r.entries) }
