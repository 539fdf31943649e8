package shell

import (
	"sync/atomic"

	"cloudeval/internal/memo"
)

// The AST cache: each distinct script text is compiled exactly once
// per process. CloudEval-YAML runs the same corpus of unit-test scripts
// for every (model, answer) pair, so on the cold evaluation path each
// script would otherwise be re-lexed, re-parsed and have its words
// re-compiled thousands of times. The key is the script text itself:
// the map hashes it with the runtime's string hash, which costs a
// fraction of the SHA-256 a digest key needs, and an equal script from
// another problem hits by comparing equal. The cache is consulted once
// per Interp.Run and nowhere else — the bodies of command substitutions
// are parsed with the script that contains them and live in its
// program. Cached programs are shared across goroutines; this is safe
// because the AST is immutable after Parse — every piece of mutable
// interpreter state (variables, the virtual FS, step counts, exit
// flags, the IO free list) lives in the Interp, never in the nodes,
// and the argv an all-literal command shares with every run is only
// ever read. Parse errors are cached too, so a malformed script is
// also diagnosed only once. The entry cap is ten times the benchmark's
// scripts; see the memo package for the overflow story.

type parseOutcome struct {
	prog *program
	err  error
}

var (
	astCacheOn atomic.Bool
	astCache   = memo.New[string, *parseOutcome](1 << 12)
)

func init() { astCacheOn.Store(true) }

// SetASTCache toggles the process-wide parse cache and returns the
// previous setting. It exists for cold-path benchmarks and tests that
// need to measure or exercise the uncached lex/parse path; production
// callers leave it enabled.
func SetASTCache(enabled bool) (prev bool) {
	return astCacheOn.Swap(enabled)
}

// ParseCached compiles a script through the AST cache: each distinct
// script text is lexed, parsed and compiled exactly once per process.
// The returned program is shared and must be treated as immutable (the
// interpreter already does).
func ParseCached(src string) (*program, error) {
	if !astCacheOn.Load() {
		return Parse(src)
	}
	o := astCache.Do(src, func() *parseOutcome {
		prog, err := Parse(src)
		return &parseOutcome{prog: prog, err: err}
	})
	return o.prog, o.err
}
