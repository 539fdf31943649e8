package jsonpath

import (
	"testing"

	"cloudeval/internal/memo"
)

// CacheStats reports the template cache to the external tests.
func CacheStats() memo.Stats { return templates.Stats() }

// EmptyCache gives the rest of t an empty template cache of the same
// budget, so that its stats count t's traffic alone.
func EmptyCache(t testing.TB) {
	old := templates
	templates = memo.NewLRU[string, compiled](templateHash, templateBudget)
	t.Cleanup(func() { templates = old })
}
