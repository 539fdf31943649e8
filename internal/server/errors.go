package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"cloudeval/client"
)

// Every /v1 error response is one JSON envelope:
//
//	{"error": {"code": "rate_limited", "message": "..."}}
//
// The HTTP status carries the class (400/404/413/429/500/502), the code a
// machine-readable cause within it, and the message the human detail.
// Handlers never call http.Error directly — the envelope,
// client.ErrorBody, is the wire contract the typed client decodes.

// Error codes used across the /v1 surface.
const (
	codeBadRequest    = "bad_request"
	codeInvalidTenant = "invalid_tenant"
	codeNotFound      = "not_found"
	codeTooLarge      = "request_too_large"
	codeRateLimited   = "rate_limited"
	codeQueueFull     = "campaign_queue_full"
	codeBadGateway    = "bad_gateway"
	codeInternal      = "internal"
)

// writeError renders the shared error envelope with the given status.
func writeError(w http.ResponseWriter, status int, code, message string) {
	var body client.ErrorBody
	body.Error.Code, body.Error.Message = code, message
	writeJSON(w, status, body)
}

// writeRetryError is writeError with a Retry-After header: the
// admission-control contract for 429s. retryAfter is rounded up to
// whole seconds, never below 1 — a Retry-After of 0 invites an
// immediate, equally doomed retry.
func writeRetryError(w http.ResponseWriter, status int, code, message string, retryAfter time.Duration) {
	secs := int64((retryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	writeError(w, status, code, message)
}

// maxBodyBytes caps what a mutating route reads of a request body. The
// largest legitimate one — a /v1/eval with a multi-document answer — is
// a few KB; without a cap one request could make the decoder buffer
// whatever a client cares to send.
const maxBodyBytes = 1 << 20

// decodeBody decodes the request's JSON body, which must be exactly one
// JSON value, into v, reading at most maxBodyBytes of it (and the one
// byte that shows a body is over). On failure it has written the
// response — 413 for a body over the cap, even one whose value ends
// before it, 400 for anything else, trailing bytes after the value
// included — and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	buf := getBuffer()
	defer putBuffer(buf)
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err == nil {
		if err = json.Unmarshal(buf.Bytes(), v); err == nil {
			return true
		}
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, codeTooLarge,
			fmt.Sprintf("request body over %d bytes", tooLarge.Limit))
	} else {
		writeError(w, http.StatusBadRequest, codeBadRequest, "bad request: "+err.Error())
	}
	return false
}

// maxPooledBuffer is the largest buffer putBuffer keeps. A /v1/eval
// body or reply is a few KB; the buffer that read a body near the 1 MiB
// cap, or wrote a campaign's outputs, is left to the collector rather
// than pinned in the pool.
const maxPooledBuffer = 64 << 10

// bufferPool holds the buffers JSON bodies pass through: a request body
// on its way to json.Unmarshal, a reply on its way to its one Write.
var bufferPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func getBuffer() *bytes.Buffer {
	return bufferPool.Get().(*bytes.Buffer)
}

func putBuffer(b *bytes.Buffer) {
	if b.Cap() > maxPooledBuffer {
		return
	}
	b.Reset()
	bufferPool.Put(b)
}
