// Package scenario is the workload-family table of the benchmark:
// one Backend per application family (Kubernetes, Envoy, Istio, Docker
// Compose, Helm, ...) declaring everything the rest of the stack used
// to hardwire per category — the simulated environment factory with
// per-backend pooling (generalizing the k8scmd env pool), the tool
// images an environment implies (registry.ImagesFor), the answer-shape
// markers the post-processor and failure categorizer inspect
// (llm.Postprocess, analysis.Categorize), the reference-corruptor
// profile and difficulty base the simulated models draw on (llm), and
// the per-family analysis grouping (analysis.Figure6Slices, the
// daemon's family leaderboard).
//
// Adding a workload family is one row in builtin.go's table: provide
// an environment whose shell binds the family's tools, point the
// backend at it, and every layer — unittest execution, image
// accounting, generation, post-processing, failure analysis,
// per-family leaderboards — picks the family up from the table. See
// DESIGN.md §2.7 and CONTRIBUTING.md ("Adding a workload family").
package scenario

import (
	"strings"
	"sync"
	"time"

	"cloudeval/internal/dataset"
	"cloudeval/internal/shell"
)

// Env is one simulated execution environment: a shell whose builtins
// are wired to the family's simulated backend, on a virtual clock.
// Implementations must make Reset restore the exact post-construction
// state, because environments are pooled and recycled across
// executions.
type Env interface {
	// Interp returns the shell the unit-test script runs in.
	Interp() *shell.Interp
	// Now returns the environment's virtual time.
	Now() time.Time
	// Reset wipes all execution state for pool recycling.
	Reset()
}

// Backend describes one workload family.
type Backend struct {
	// Category is the dataset category the backend serves.
	Category dataset.Category
	// Paper marks the families of the source paper's corpus; Tables 2
	// and 4 are pinned to these so the reproduction stays byte-stable
	// as extension families are added.
	Paper bool
	// NewEnv builds a fresh simulated environment with the family's
	// tool builtins registered.
	NewEnv func() Env
	// ImpliedImages are the tool images every unit-test environment of
	// this family pulls on top of the images named by the reference
	// manifest (the Envoy image for Envoy problems, the pause image for
	// every Kubernetes test node, ...).
	ImpliedImages []string
	// Marker is the top-level key that identifies a family-shaped
	// answer ("kind" for manifest families, "static_resources" for
	// Envoy, "services" for Compose). Failure categorization and the
	// cheap format check key off it.
	Marker string
	// HasKind reports whether the family's documents carry Kubernetes
	// kind/apiVersion identity. It selects the "wrong kind" corruption
	// for category-4 answers (families without document kinds produce
	// functionally wrong configs instead) and the kind+apiVersion form
	// of the format check.
	HasKind bool
	// DocStart is the line prefix a document of this family starts
	// with; the §3.1 post-processor cuts chatty preambles at the first
	// such line.
	DocStart string
	// DifficultyBase is the family's base difficulty in [0,1] before
	// the solution-length term (the paper's Figure 6: Envoy hardest).
	DifficultyBase float64
	// PromptHint is family-specific prompt scaffolding appended to the
	// Appendix B template. Empty for the paper families, whose prompts
	// are pinned by the paper.
	PromptHint string

	pool sync.Pool
}

// GetEnv returns a pristine environment for this family, reusing a
// pooled one when available. Callers must return it with PutEnv and
// must not retain any reference into it afterwards.
func (b *Backend) GetEnv() Env {
	if v := b.pool.Get(); v != nil {
		return v.(Env)
	}
	return b.NewEnv()
}

// PutEnv wipes an environment and recycles it into this family's pool.
// The wipe happens on Put rather than Get so a leaked reference can at
// most observe an empty environment, never a later execution's state.
func (b *Backend) PutEnv(e Env) {
	e.Reset()
	b.pool.Put(e)
}

// For resolves a category's backend. Unknown categories resolve to the
// Kubernetes backend, mirroring the default arms of the category
// switches this table replaced.
func For(c dataset.Category) *Backend {
	for _, b := range backends {
		if b.Category == c {
			return b
		}
	}
	return backends[0]
}

// All lists backends in table order (the paper families first, in the
// paper's presentation order, then extensions). Per-family breakdowns
// across the stack iterate this, so row and column order is stable
// everywhere.
func All() []*Backend {
	return append([]*Backend(nil), backends...)
}

// docStartPrefix and docStartExact are the document-start markers of
// every family, deduplicated: manifest families' markers match as line
// prefixes, kindless families' only as whole lines.
var docStartPrefix, docStartExact = docStartRules()

func docStartRules() (prefix, exact []string) {
	seenP, seenE := map[string]bool{}, map[string]bool{}
	for _, b := range backends {
		if b.DocStart == "" {
			continue
		}
		if b.HasKind {
			if !seenP[b.DocStart] {
				seenP[b.DocStart] = true
				prefix = append(prefix, b.DocStart)
			}
		} else if !seenE[b.DocStart] {
			seenE[b.DocStart] = true
			exact = append(exact, b.DocStart)
		}
	}
	return prefix, exact
}

// IsDocStartLine reports whether a trimmed answer line opens some
// family's document — the post-processor's policy-2 predicate.
// Manifest families' DocStart ("apiVersion:") carries a scalar value,
// so any suffix qualifies; kindless families' markers introduce a
// block mapping, so only the bare key counts — a prose line like
// "services: web and db" is not a Compose document start and must not
// swallow the manifest that follows it.
func IsDocStartLine(trimmed string) bool {
	for _, p := range docStartPrefix {
		if strings.HasPrefix(trimmed, p) {
			return true
		}
	}
	for _, e := range docStartExact {
		if trimmed == e {
			return true
		}
	}
	return false
}
