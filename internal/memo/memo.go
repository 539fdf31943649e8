// Package memo holds the shared memoization building blocks for the
// process-wide content-addressed caches on the benchmark's hot paths.
//
// Two types ship:
//
//   - LRU, a sharded singleflight map under a byte budget with LRU
//     eviction, for everything whose values are large or fallible: unit
//     test executions (engine) and provider generations (dispatcher).
//     One lock per shard, errors never cached, resident cost never above
//     the budget.
//   - Cache, a capped lock-free map for cheap pure computations. Each
//     maps an immutable key to an immutable outcome computed exactly
//     once.
//
// Cache has four users, each keyed by text that only exists at run
// time, so nothing loaded with the corpus could hold its outcome:
//
//   - yamlx's document cache, by the Digest of a YAML text: mostly
//     candidate answers, parsed again by every kubectl apply and metric;
//   - envoysim's bootstrap cache, by the Digest of an envoy config,
//     which is an answer file;
//   - jsonpath's template cache, by the template text, which reaches
//     it as a kubectl argument a script expands while it runs;
//   - shell's grep matchers, by (pattern, -i), a grep argument likewise
//     expanded at run time, sometimes from model output.
//
// What a benchmark problem fixes — its unit test's digest and program,
// its compiled reference, its prompts — is compiled onto the problem
// instead (dataset.Memo) and never looked up by content.
//
// Cache stays a second type because its users are read-mostly pure
// functions under every kubectl verb and jsonpath lookup: a hit is one
// sync.Map load with no lock, where LRU takes a shard mutex to move
// the entry up its recency list.
//
// Entry count in Cache is capped: its users are fed by model-generated
// text, which in a long-lived cloudevald daemon sampling at nonzero
// temperature is unbounded. A full cache keeps serving hits for what
// it already holds and computes everything else fresh — performance
// degrades to the uncached path, memory does not grow.
package memo

import (
	"crypto/sha256"
	"sync"
	"sync/atomic"
)

// Cache memoizes key → value with a best-effort entry cap. The zero
// value is not usable; construct with New. Values must be immutable
// (or never mutated by callers), since they are shared across
// goroutines.
type Cache[K comparable, V any] struct {
	m   sync.Map
	n   atomic.Int64
	max int64
}

// New returns a cache bounded to roughly max entries. The bound is
// precise up to concurrency: Len never exceeds max + (P − 1), where P
// is the peak number of goroutines concurrently inside Do — each can
// pass the capacity check at most once before the counter catches up,
// so with P workers the cache holds at most max + P − 1 entries, ever.
// The overshoot is bounded by worker count, not by traffic.
func New[K comparable, V any](max int64) *Cache[K, V] {
	return &Cache[K, V]{max: max}
}

// inflight is a pending or completed computation parked in the map
// while fn runs. Once fn returns, the entry is replaced by the bare
// value, so the steady-state hit path pays no channel synchronization.
type inflight[V any] struct {
	done chan struct{}
	v    V
}

// Do returns the cached value for key, computing and (capacity
// permitting) storing it via fn on a miss. Concurrent misses on the
// same key collapse into a single fn call: the first caller computes,
// the rest park on the in-flight entry and share its result — fn runs
// exactly once per stored key. fn must return (a panicking fn poisons
// its own call but unparks waiters to recompute) and must be
// deterministic for a given key, which content-addressed keys
// guarantee.
func (c *Cache[K, V]) Do(key K, fn func() V) V {
	for {
		if raw, ok := c.m.Load(key); ok {
			if fl, ok := raw.(*inflight[V]); ok {
				// Park on the winner. Closing done happens after the
				// winner's Store (or its panic-path Delete), so the
				// reload on the next pass sees the bare value, a fresh
				// entry, or a miss — never this same entry again.
				<-fl.done
				continue
			}
			return raw.(V)
		}
		if c.n.Load() >= c.max {
			// Full: serve what is cached, compute the rest fresh.
			return fn()
		}
		fl := &inflight[V]{done: make(chan struct{})}
		if _, loaded := c.m.LoadOrStore(key, fl); loaded {
			continue // lost the race; park on the winner's entry
		}
		committed := false
		defer func() {
			if !committed {
				// fn panicked: drop the entry so future calls retry, and
				// unpark waiters (they reload, miss, and recompute).
				c.m.Delete(key)
				close(fl.done)
			}
		}()
		v := fn()
		committed = true
		c.m.Store(key, v) // replace the inflight entry with the bare value
		c.n.Add(1)
		close(fl.done)
		return v
	}
}

// Digest is the SHA-256 of s, computed without a heap copy of s: the
// content key of the caches above and of the engine's results.
// sha256.Sum256([]byte(s)) copies s to the heap — the conversion does
// not escape, but the assembly block function may write its argument
// for all the compiler knows, so -gcflags=-m reports no zero-copy
// conversion — whereas feeding the hasher through a buffer on this
// frame allocates nothing.
func Digest(s string) (sum [sha256.Size]byte) {
	h := sha256.New()
	var buf [512]byte
	for len(s) > 0 {
		n := copy(buf[:], s)
		h.Write(buf[:n])
		s = s[n:]
	}
	h.Sum(sum[:0])
	return sum
}
