package memo

import (
	"errors"
	"runtime"
	"sync"
)

// LRU is a sharded singleflight cache under a byte budget, behind every
// process-wide cache the package comment lists. Keys hash into shards,
// each with its own mutex, map and recency list, so concurrent calls on
// different keys never serialize on one lock.
//
// Do is its one operation, the singleflight contract for expensive,
// fallible computations: concurrent calls with the same key collapse
// into one fn call; laggards park on the winner's entry and share its
// result. A fn error is handed to every parked waiter but never cached
// — a transient executor or API failure must not be frozen into the
// cache.
//
// Every committed entry carries a caller-supplied cost. The budget is
// divided evenly across the shards and each shard evicts its least
// recently used entries until it is back under its share, so eviction
// never takes a global lock and resident cost never exceeds the
// budget, whatever passes through. An entry still in flight has no
// cost yet and is not on the recency list: it is charged when it
// commits and can never be the eviction victim. An entry costlier than
// a whole shard's share is not cached at all — admitting it would
// empty the shard to hold one element the next insert removes anyway.
//
// The zero value is not usable; construct with NewLRU.
type LRU[K comparable, V any] struct {
	shards []lruShard[K, V]
	mask   uint32
	hash   func(K) uint32
	// perShard is the budget each shard enforces independently.
	perShard int64
}

// lruEntry is one key's slot. From creation until its computation
// settles it is pending (in flight): present in the shard's map, off
// the recency list, and v belongs to the computing goroutine. Settling
// publishes v to parked waiters through fl and — on success — links the
// entry, after which it is immutable apart from its list pointers.
type lruEntry[K comparable, V any] struct {
	key        K
	v          V
	cost       int64
	prev, next *lruEntry[K, V]
	pending    bool
	// fl is the rendezvous of a pending entry, allocated by the first
	// caller that parks on it: most computations have no waiter, and a
	// miss then costs the entry alone. Settling drops it.
	fl *flight
}

// flight is where callers of one in-flight computation meet: done is
// released when it settles, after which err is its verdict.
type flight struct {
	done sync.WaitGroup
	err  error
}

// lruShard is 64 bytes on 64-bit, so neighboring shards' locks sit on
// distinct cache lines.
type lruShard[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*lruEntry[K, V]
	// head is the most recently used entry, tail the eviction victim.
	head, tail *lruEntry[K, V]
	bytes      int64
	hits       int64
	misses     int64
	evictions  int64
}

// EntryOverhead is the flat part of what a resident entry costs a
// caller that budgets in bytes: the entry with its key and value
// headers, plus its map slot, rounded up. Charging it on top of the
// value's out-of-line bytes keeps a flood of small values under the
// budget too.
const EntryOverhead = 256

// errPanicked is handed to waiters parked on a computation whose fn
// panicked; the panicking caller itself propagates the panic.
var errPanicked = errors.New("memo: in-flight computation panicked")

// shardCount is the one shard-count policy: the smallest power of two
// at least four times GOMAXPROCS, clamped to [8, 512].
func shardCount() int {
	n := 8
	for n < 4*runtime.GOMAXPROCS(0) && n < 512 {
		n <<= 1
	}
	return n
}

// NewLRU builds a cache keyed by hash holding at most budget of entry
// cost, split evenly across shardCount shards fixed at construction. A
// budget below the shard count still grants each shard one unit,
// degenerating to a cache that admits nothing — legal, and how
// benchmarks force the uncached path.
func NewLRU[K comparable, V any](hash func(K) uint32, budget int64) *LRU[K, V] {
	n := shardCount()
	c := &LRU[K, V]{
		shards:   make([]lruShard[K, V], n),
		mask:     uint32(n - 1),
		hash:     hash,
		perShard: max(budget/int64(n), 1),
	}
	for i := range c.shards {
		c.shards[i].m = make(map[K]*lruEntry[K, V])
	}
	return c
}

// Do returns the cached value for key, computing it via fn on a miss;
// fn also reports what the value costs against the budget. hit reports
// whether this call was served by an existing entry — completed or in
// flight (parked on another caller's computation) — as opposed to
// running fn itself. When fn returns an error or panics, the entry is
// removed before waiters are released: they share the error, the next
// Do recomputes.
func (c *LRU[K, V]) Do(key K, fn func() (V, int64, error)) (v V, err error, hit bool) {
	sh := &c.shards[c.hash(key)&c.mask]
	sh.mu.Lock()
	if e, ok := sh.m[key]; ok {
		sh.hits++
		if e.pending {
			fl := e.fl
			if fl == nil {
				fl = new(flight)
				fl.done.Add(1)
				e.fl = fl
			}
			sh.mu.Unlock()
			fl.done.Wait()
			return e.v, fl.err, true
		}
		sh.moveToFront(e)
		v = e.v
		sh.mu.Unlock()
		return v, nil, true
	}
	e := &lruEntry[K, V]{key: key, pending: true}
	sh.m[key] = e
	sh.misses++
	sh.mu.Unlock()

	// err starts as the panic verdict and is overwritten by fn's own:
	// if fn never returns, settle drops the entry and hands waiters
	// errPanicked with no recover in the way of the panic.
	var cost int64
	err = errPanicked
	defer func() { c.settle(sh, e, cost, err) }()
	e.v, cost, err = fn()
	return e.v, err, false
}

// settle ends e's flight with fn's verdict err: commit e at cost if err
// is nil and it fits, drop it otherwise, then hand err to the waiters,
// if any parked, and release them. A pending entry is never evicted,
// so e still owns its key.
func (c *LRU[K, V]) settle(sh *lruShard[K, V], e *lruEntry[K, V], cost int64, err error) {
	cost = max(cost, 1)
	sh.mu.Lock()
	fl := e.fl
	e.pending, e.fl = false, nil
	if err == nil && cost <= c.perShard {
		sh.admit(e, cost, c.perShard)
	} else {
		delete(sh.m, e.key)
	}
	sh.mu.Unlock()
	if fl != nil {
		fl.err = err
		fl.done.Done()
	}
}

// admit links e, already in the map, as most recently used, charges
// its cost and evicts from the tail until the shard is within budget.
// cost <= budget, so e itself is never the victim.
func (sh *lruShard[K, V]) admit(e *lruEntry[K, V], cost, budget int64) {
	e.cost = cost
	sh.pushFront(e)
	sh.bytes += cost
	for sh.bytes > budget {
		victim := sh.tail
		sh.unlink(victim)
		delete(sh.m, victim.key)
		sh.bytes -= victim.cost
		sh.evictions++
	}
}

func (sh *lruShard[K, V]) pushFront(e *lruEntry[K, V]) {
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

func (sh *lruShard[K, V]) unlink(e *lruEntry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (sh *lruShard[K, V]) moveToFront(e *lruEntry[K, V]) {
	if sh.head == e {
		return
	}
	sh.unlink(e)
	sh.pushFront(e)
}

// Stats is an LRU's observable state.
type Stats struct {
	Capacity  int64 // total budget across shards
	Bytes     int64 // cost of the committed entries
	Entries   int   // committed and in-flight entries
	Hits      int64 // Do calls served by an existing entry
	Misses    int64
	Evictions int64 // entries removed to make room
}

// Stats snapshots the cache. Per-shard consistent, not cross-shard
// atomic — a monitoring surface.
func (c *LRU[K, V]) Stats() Stats {
	st := Stats{Capacity: c.perShard * int64(len(c.shards))}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		st.Bytes += sh.bytes
		st.Entries += len(sh.m)
		st.Hits += sh.hits
		st.Misses += sh.misses
		st.Evictions += sh.evictions
		sh.mu.Unlock()
	}
	return st
}
