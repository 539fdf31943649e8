package inference

import (
	"fmt"
	"strings"

	"cloudeval/internal/llm"
)

// OpenSpec builds the provider a CLI flag triple selects — the one
// call cmd/cloudeval's wiring makes for every subcommand:
//
//	replay != ""          serve the JSONL trace at that path (zero live calls)
//	provider == "sim"     the deterministic zoo
//	provider == "http:U"  the OpenAI-compatible endpoint rooted at U,
//	                      authenticating with apiKey when non-empty
//
// A non-empty record path wraps the selected provider in a trace
// recorder.
func OpenSpec(provider, record, replay, apiKey string) (Provider, error) {
	var prov Provider
	switch {
	case replay != "":
		rp, err := OpenReplay(replay)
		if err != nil {
			return nil, err
		}
		prov = rp
	case provider == "sim":
		prov = NewSim(llm.Models)
	case strings.HasPrefix(provider, "http:"):
		base := strings.TrimPrefix(provider, "http:")
		prov = NewHTTP(base, WithAPIKey(apiKey))
	default:
		return nil, fmt.Errorf("inference: unknown provider %q (want sim or http:<base-url>)", provider)
	}
	if record != "" {
		rec, err := NewRecord(record, prov)
		if err != nil {
			return nil, err
		}
		prov = rec
	}
	return prov, nil
}
