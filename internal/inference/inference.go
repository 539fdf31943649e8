// Package inference is the model-invocation seam of the benchmark —
// the generation-side counterpart of internal/engine. The paper's
// pipeline has two halves: LLM inference against real model APIs
// (metered per token, Table 3) and unit-test execution; engine gave
// the execution half a pluggable, cached architecture, and this
// package does the same for generation.
//
// A Provider turns one Request (model, problem, generation options)
// into one Response (raw text, token Usage, latency). Three adapters
// ship:
//
//   - Sim wraps the deterministic twelve-model zoo of internal/llm
//     byte-identically — the default, and the reason every table of
//     the paper reproduction stays pinned;
//   - Record / Replay write and read JSONL trace files, so a
//     transcript captured from any provider (including a real API)
//     can drive the whole pipeline deterministically with zero live
//     generations;
//   - HTTP speaks the OpenAI-compatible chat-completions wire format
//     to a real endpoint.
//
// Above the providers sits the Dispatcher: a concurrent front-end
// with a per-provider concurrency limit, a content-addressed
// generation cache (singleflight in memory, optionally persisted as a
// generation record kind in internal/store), error latching, and
// metered token accounting that internal/cost prices.
package inference

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"sync"
	"time"

	"cloudeval/internal/dataset"
	"cloudeval/internal/llm"
	"cloudeval/internal/prompt"
	"cloudeval/internal/textmetrics"
)

// Request is one generation request: a model name, the problem whose
// prompt to answer, and the paper's generation options (sample index,
// temperature, few-shot count).
type Request struct {
	Model   string
	Problem dataset.Problem
	Opts    llm.GenOptions
}

// Prompt renders the full prompt text for the request — the Appendix B
// template plus the problem and its few-shot examples, exactly what a
// live API would be sent.
func (r Request) Prompt() string { return prompt.Build(r.Problem, r.Opts.Shots) }

// Key is the content address of one generation in the cache and the
// trace format.
type Key [sha256.Size]byte

// Key derives the request's content address: the model name, the
// prompt digest, the generation options — and the problem identity
// (ID and variant). The identity matters because the simulated zoo is
// a noisy channel over the *problem*, not the prompt text: the corpus
// contains distinct problems whose rendered prompts are byte-identical
// (some simplified variants simplify to their original; some Compose
// seeds share question text) yet whose simulated answers differ.
// Aliasing those through a prompt-only key would silently change
// Table 4. For live HTTP providers the identity component is
// redundant but harmless: it only forgoes deduplicating the rare
// byte-identical prompt across problems. The sample index is
// normalized to 0 at temperature 0, mirroring the zoo's own stream
// pinning — every provider is deterministic at temperature 0, so
// retries hit the cache instead of a live endpoint.
//
// The prompt digest is the problem's own (promptInfoFor), never
// materialized per request: Key runs on every request including cache
// hits, while the rendered prompt text is needed only on live provider
// calls.
func (r Request) Key() Key { return r.keyFor(r.promptDigest()) }

// promptDigest is the SHA-256 of Prompt(), equal to
// prompt.Digest(r.Problem, r.Opts.Shots) but computed once per problem
// and shot count.
func (r Request) promptDigest() [sha256.Size]byte {
	return promptInfoFor(r.Problem, r.Opts.Shots).digest
}

// keyBufs pools the preimage scratch buffers keyFor assembles the key
// material in; keys are computed on every request, hits included.
var keyBufs = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

// keyFor hashes the key preimage "gen|model|id|variant|digest-hex|
// sample|temp|shots" — assembled by hand into a pooled buffer rather
// than through fmt, which boxes every argument. The preimage bytes
// are pinned by TestKeyForMatchesFmt: persisted generation records
// and recorded traces are addressed by this hash, so changing a
// single byte would orphan every existing store and trace.
func (r Request) keyFor(promptDigest [sha256.Size]byte) Key {
	sample := r.Opts.Sample
	if r.Opts.Temperature == 0 {
		sample = 0
	}
	bp := keyBufs.Get().(*[]byte)
	b := (*bp)[:0]
	b = append(b, "gen|"...)
	b = append(b, r.Model...)
	b = append(b, '|')
	b = append(b, r.Problem.ID...)
	b = append(b, '|')
	b = append(b, r.Problem.Variant...)
	b = append(b, '|')
	b = hex.AppendEncode(b, promptDigest[:])
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(sample), 10)
	b = append(b, '|')
	b = strconv.AppendFloat(b, r.Opts.Temperature, 'g', -1, 64)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(r.Opts.Shots), 10)
	k := Key(sha256.Sum256(b))
	*bp = b
	keyBufs.Put(bp)
	return k
}

// Usage meters one generation's token counts, the quantity real APIs
// bill by (Table 3 prices per million tokens).
type Usage struct {
	PromptTokens     int `json:"prompt_tokens"`
	CompletionTokens int `json:"completion_tokens"`
}

// Total is the combined token count.
func (u Usage) Total() int { return u.PromptTokens + u.CompletionTokens }

// EstimateUsage estimates token usage for providers that do not meter
// natively (the sim zoo; HTTP endpoints that omit the usage block),
// with the same estimator the cost model uses for corpus statistics.
func EstimateUsage(promptText, completion string) Usage {
	return Usage{
		PromptTokens:     textmetrics.EstimateTokens(promptText),
		CompletionTokens: textmetrics.EstimateTokens(completion),
	}
}

// Response is one generation outcome: the raw model text (run
// llm.Postprocess to extract clean YAML), metered token usage, and
// the call latency.
type Response struct {
	Text    string
	Usage   Usage
	Latency time.Duration
}

// Provider produces model responses: the simulated zoo, a recorded
// trace, or a live HTTP endpoint. Implementations must be safe for
// concurrent use — the dispatcher calls Generate from up to its
// concurrency-limit goroutines at once.
type Provider interface {
	// Name identifies the provider in stats and logs.
	Name() string
	// Generate produces the model's raw response for one request.
	Generate(ctx context.Context, req Request) (Response, error)
	// Close releases provider resources (flushes trace files, closes
	// connections).
	Close() error
}
