package inference

import (
	"context"
	"fmt"
	"time"

	"cloudeval/internal/llm"
	"cloudeval/internal/textmetrics"
)

// Sim serves generations from the deterministic model zoo of
// internal/llm, byte-identical to calling llm.Model.Generate directly.
// Usage is estimated from the rendered prompt and the response text;
// latency is a deterministic function of the token counts, so traces
// recorded from the sim replay identically.
type Sim struct {
	byName map[string]llm.Model
}

// NewSim builds a sim provider over the given models (typically
// llm.Models, the Table 4 zoo).
func NewSim(models []llm.Model) *Sim {
	s := &Sim{byName: make(map[string]llm.Model, len(models))}
	for _, m := range models {
		s.byName[m.Name] = m
	}
	return s
}

// Name implements Provider.
func (s *Sim) Name() string { return "sim" }

// Generate implements Provider.
func (s *Sim) Generate(ctx context.Context, req Request) (Response, error) {
	if err := ctx.Err(); err != nil {
		return Response{}, err
	}
	m, ok := s.byName[req.Model]
	if !ok {
		return Response{}, fmt.Errorf("inference: sim has no model %q", req.Model)
	}
	text := m.Generate(req.Problem, req.Opts)
	// Equal to EstimateUsage(req.Prompt(), text) — the prompt side is
	// the problem's own count instead of re-rendering and re-tokenizing
	// its prompt once per model.
	u := Usage{
		PromptTokens:     promptInfoFor(req.Problem, req.Opts.Shots).tokens,
		CompletionTokens: textmetrics.EstimateTokens(text),
	}
	return Response{Text: text, Usage: u, Latency: simLatency(u)}, nil
}

// Close implements Provider.
func (s *Sim) Close() error { return nil }

// simLatency models a hosted endpoint: a fixed round trip, fast prompt
// ingestion, and autoregressive completion tokens dominating. Purely a
// function of usage, so it is deterministic and replays exactly.
func simLatency(u Usage) time.Duration {
	return 80*time.Millisecond +
		time.Duration(u.PromptTokens)*100*time.Microsecond +
		time.Duration(u.CompletionTokens)*12*time.Millisecond
}
