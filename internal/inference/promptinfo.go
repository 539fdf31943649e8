package inference

import (
	"crypto/sha256"

	"cloudeval/internal/dataset"
	"cloudeval/internal/prompt"
	"cloudeval/internal/textmetrics"
)

// promptInfo is everything the hot path needs from a rendered prompt
// without rendering it: the SHA-256 of the text (the cache-key
// component) and its estimated token count (the usage meter).
// Request.Key runs on every generation including cache hits, and the
// sim provider meters every live call, so a problem keeps one per shot
// count (see dataset.Memo) instead of re-rendering its prompt.
type promptInfo struct {
	digest [sha256.Size]byte
	tokens int
}

// WarmPrompts compiles every problem's prompt at the given shot counts
// in one pass over the corpus, so that a campaign's parallel phase
// starts on a compiled corpus. Every request key and every sim usage
// meter reads them.
func WarmPrompts(problems []dataset.Problem, shots ...int) {
	if len(shots) == 0 {
		shots = []int{0}
	}
	for _, p := range problems {
		for _, s := range shots {
			promptInfoFor(p, s)
		}
	}
}

// promptInfoFor returns the digest and token estimate of
// prompt.Build(p, shots). TestPromptInfoMatchesBuild pins it to the
// uncompiled definitions.
func promptInfoFor(p dataset.Problem, shots int) promptInfo {
	shots = min(max(shots, 0), len(prompt.DefaultShots))
	return dataset.Memo(p, dataset.Prompt+dataset.Slot(shots), func(p dataset.Problem) promptInfo {
		text := prompt.Build(p, shots)
		return promptInfo{sha256.Sum256([]byte(text)), textmetrics.EstimateTokens(text)}
	})
}
