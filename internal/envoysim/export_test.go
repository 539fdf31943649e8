package envoysim

import (
	"testing"

	"cloudeval/internal/memo"
)

// CacheStats reports the bootstrap cache to the external tests.
func CacheStats() memo.Stats { return bootCache.Stats() }

// EmptyCache gives the rest of t an empty bootstrap cache of the same
// budget, so that its stats count t's traffic alone.
func EmptyCache(t testing.TB) {
	old := bootCache
	bootCache = memo.NewLRU[string, bootOutcome](bootHash, bootBudget)
	t.Cleanup(func() { bootCache = old })
}
