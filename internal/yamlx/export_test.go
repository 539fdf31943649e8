package yamlx

import (
	"testing"

	"cloudeval/internal/memo"
)

// CacheStats reports the document cache to the external tests.
func CacheStats() memo.Stats { return docCache.Stats() }

// EmptyCache gives the rest of t an empty document cache of the same
// budget, so that its stats count t's traffic alone.
func EmptyCache(t testing.TB) {
	old := docCache
	docCache = memo.NewLRU[string, docOutcome](docShard, docBudget)
	t.Cleanup(func() { docCache = old })
}
