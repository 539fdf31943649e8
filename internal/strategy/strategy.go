// Package strategy implements the generation-improvement methods the
// paper proposes but leaves as future work:
//
//   - FormatRetry (§4.1, observation 1): "the performance of GPT-4
//     could be further improved by implementing a basic format check to
//     filter out such errors and regenerate new ones" — resample while
//     the answer fails a cheap structural check;
//   - BestOfK (§4.2 + §4.4): generate k samples and pick the best by a
//     cheap YAML-aware metric instead of running unit tests, the
//     practical variant of multi-sample generation when no oracle is
//     available.
//
// Every strategy draws its samples through an inference.Generator —
// the sim zoo, a recorded trace, or a live endpoint — via one shared
// generate+Postprocess path, so strategies meter and cache exactly
// like the campaigns do.
package strategy

import (
	"context"

	"cloudeval/internal/dataset"
	"cloudeval/internal/inference"
	"cloudeval/internal/llm"
	"cloudeval/internal/scenario"
	"cloudeval/internal/score"
	"cloudeval/internal/yamlx"
)

// FormatCheck reports whether an answer passes the basic structural
// filter: non-trivial length, parses as YAML, and carries the problem
// family's top-level marker (kind+apiVersion for manifest families,
// static_resources for Envoy, services for Compose — declared by the
// scenario backend). This is exactly the check that would catch the
// paper's failure categories 1-3 without any cluster access.
func FormatCheck(answer string, p dataset.Problem) bool {
	docs, err := yamlx.ParseAllCached(answer)
	if err != nil {
		return false
	}
	backend := scenario.For(p.Category)
	for _, d := range docs {
		if d == nil || d.Kind == yamlx.NullKind {
			continue
		}
		if d.Kind != yamlx.MapKind {
			return false
		}
		if !backend.HasKind {
			if d.Has(backend.Marker) {
				return true
			}
			continue
		}
		if d.Has("kind") && d.Has("apiVersion") {
			return true
		}
	}
	return false
}

// Result is one strategy outcome.
type Result struct {
	Answer  string
	Samples int // how many generations were spent
}

// generate is the one generate+Postprocess path every strategy
// shares: draw the raw sample from g and extract clean YAML.
func generate(g inference.Generator, m llm.Model, p dataset.Problem, opts llm.GenOptions) (raw, answer string, err error) {
	resp, err := g.Generate(context.Background(), inference.Request{Model: m.Name, Problem: p, Opts: opts})
	if err != nil {
		return "", "", err
	}
	return resp.Text, llm.Postprocess(resp.Text), nil
}

// FormatRetry regenerates (at the given temperature) until the answer
// passes FormatCheck or the budget is exhausted; the last sample is
// returned either way. The sample stream can run dry before the
// budget does: at temperature 0 every sample is the pinned greedy
// answer, and even at temperature > 0 a model can repeat itself — so
// the loop short-circuits as soon as a raw sample repeats the
// previous one, instead of burning the remaining budget regenerating
// an answer it has already rejected.
func FormatRetry(g inference.Generator, m llm.Model, p dataset.Problem, maxSamples int, temperature float64) (Result, error) {
	var answer, prevRaw string
	for k := 0; k < maxSamples; k++ {
		raw, ans, err := generate(g, m, p, llm.GenOptions{Sample: k, Temperature: temperature})
		if err != nil {
			return Result{Answer: answer, Samples: k}, err
		}
		if k > 0 && raw == prevRaw {
			return Result{Answer: answer, Samples: k + 1}, nil
		}
		prevRaw, answer = raw, ans
		if FormatCheck(answer, p) {
			return Result{Answer: answer, Samples: k + 1}, nil
		}
		if temperature == 0 {
			// Deterministic stream: every further sample is this one.
			return Result{Answer: answer, Samples: k + 1}, nil
		}
	}
	return Result{Answer: answer, Samples: maxSamples}, nil
}

// BestOfK draws k samples and returns the one with the highest
// KV-wildcard match against the labeled reference — the §4.4 insight
// (kv_wildcard is the best cheap proxy for the unit test) turned into a
// selection rule. When no sample parses, the first is returned.
func BestOfK(g inference.Generator, m llm.Model, p dataset.Problem, k int, temperature float64) (Result, error) {
	best := ""
	bestScore := -1.0
	for i := 0; i < k; i++ {
		_, answer, err := generate(g, m, p, llm.GenOptions{Sample: i, Temperature: temperature})
		if err != nil {
			return Result{Answer: best, Samples: i}, err
		}
		kv := score.KVWildcard(p, answer)
		if kv > bestScore {
			best, bestScore = answer, kv
		}
	}
	return Result{Answer: best, Samples: k}, nil
}

// Greedy is the baseline: one zero-temperature sample.
func Greedy(g inference.Generator, m llm.Model, p dataset.Problem) (Result, error) {
	_, answer, err := generate(g, m, p, llm.GenOptions{})
	if err != nil {
		return Result{}, err
	}
	return Result{Answer: answer, Samples: 1}, nil
}
