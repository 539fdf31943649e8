package shell

import (
	"testing"

	"cloudeval/internal/memo"
)

// CacheStats reports the grep matcher cache to the external tests.
func CacheStats() memo.Stats { return grepMatchers.Stats() }

// EmptyCache gives the rest of t an empty grep matcher cache of the same
// budget, so that its stats count t's traffic alone.
func EmptyCache(t testing.TB) {
	old := grepMatchers
	grepMatchers = memo.NewLRU[string, grepMatcher](grepHash, grepBudget)
	t.Cleanup(func() { grepMatchers = old })
}
