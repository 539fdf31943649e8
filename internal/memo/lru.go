package memo

import (
	"errors"
	"runtime"
	"sync"
	"unsafe"
)

// LRU is a sharded singleflight cache under a byte budget, behind every
// process-wide cache the package comment lists. The caller's hash gives
// each key a 64-bit fingerprint whose low bits pick a shard, each with
// its own mutex, map and recency list, so concurrent calls on different
// keys never serialize on one lock. A shard maps fingerprints, not
// keys, to entries that keep their full key: a key whose fingerprint
// another key holds is computed uncached, never served the other's
// value.
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
	mask   uint64
	hash   func(K) uint64
	// perShard is the budget each shard enforces independently.
	perShard int64
}

// lruEntry is one key's slot, taken from its shard's free list. From
// then until its computation settles it is pending (in flight): present
// in the shard's map under fp, off the recency list, and holding no
// value yet. Settling hands the value to parked waiters through fl and
// — on success — stores it and links the entry, after which it is
// immutable apart from its list pointers until eviction zeroes it and
// returns it to the free list.
type lruEntry[K comparable, V any] struct {
	key K
	v   V
	fp  uint64
	// cost is what a committed entry charges the shard's budget.
	cost int64
	// prev and next link the recency list; next also links the free
	// list.
	prev, next *lruEntry[K, V]
	pending    bool
	// fl is the rendezvous of a pending entry, allocated by the first
	// caller that parks on it: most computations have no waiter, and an
	// uncontended miss then allocates nothing. Settling drops it.
	fl *flight[V]
}

// flight is where callers of one in-flight computation meet: done is
// released when it settles, after which v and err are its outcome.
// Waiters read the value here, not from the entry, whose slot may
// already hold another key by the time they wake.
type flight[V any] struct {
	done sync.WaitGroup
	v    V
	err  error
}

// lruShard is padded to 128 bytes, two cache lines on 64-bit, so
// neighboring shards' locks sit on distinct cache lines.
type lruShard[K comparable, V any] struct {
	mu sync.Mutex
	m  map[uint64]*lruEntry[K, V]
	// head is the most recently used entry, tail the eviction victim.
	head, tail *lruEntry[K, V]
	// free is the first of the zeroed entries a miss takes its slot
	// from, linked through next.
	free      *lruEntry[K, V]
	bytes     int64
	hits      int64
	misses    int64
	evictions int64
	_         [56]byte
}

// chunkBytes is what one refill of a shard's free list allocates: a
// size class of its own, so an array of entries that fills it loses
// less than one entry to rounding.
const chunkBytes = 8192

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

// NewLRU builds a cache holding at most budget of entry cost, split
// evenly across shardCount shards fixed at construction. hash is the
// keys' 64-bit fingerprint: its low bits pick the shard, so they must
// be as uniform as the rest, and two keys that share one are each
// computed uncached while the other is resident. A
// budget below the shard count still grants each shard one unit,
// degenerating to a cache that admits nothing — legal, and how
// benchmarks force the uncached path.
func NewLRU[K comparable, V any](hash func(K) uint64, budget int64) *LRU[K, V] {
	n := shardCount()
	c := &LRU[K, V]{
		shards:   make([]lruShard[K, V], n),
		mask:     uint64(n - 1),
		hash:     hash,
		perShard: max(budget/int64(n), 1),
	}
	for i := range c.shards {
		c.shards[i].m = make(map[uint64]*lruEntry[K, V])
	}
	return c
}

// Do returns the cached value for key, computing it via fn on a miss;
// fn also reports what the value costs against the budget. hit reports
// whether this call was served by an existing entry — completed or in
// flight (parked on another caller's computation) — as opposed to
// running fn itself. When fn returns an error or panics, the entry is
// removed before waiters are released: they share the error, the next
// Do recomputes. A key whose fingerprint another key's entry holds
// counts a miss and runs fn outside the cache, leaving that entry be.
func (c *LRU[K, V]) Do(key K, fn func() (V, int64, error)) (v V, err error, hit bool) {
	fp := c.hash(key)
	sh := &c.shards[fp&c.mask]
	sh.mu.Lock()
	if e, ok := sh.m[fp]; ok {
		if e.key != key {
			sh.misses++
			sh.mu.Unlock()
			v, _, err = fn()
			return v, err, false
		}
		sh.hits++
		if e.pending {
			fl := e.fl
			if fl == nil {
				fl = new(flight[V])
				fl.done.Add(1)
				e.fl = fl
			}
			sh.mu.Unlock()
			fl.done.Wait()
			return fl.v, fl.err, true
		}
		sh.moveToFront(e)
		v = e.v
		sh.mu.Unlock()
		return v, nil, true
	}
	e := sh.take()
	e.key, e.fp, e.pending = key, fp, true
	sh.m[fp] = e
	sh.misses++
	sh.mu.Unlock()

	// err starts as the panic verdict and is overwritten by fn's own:
	// if fn never returns, settle drops the entry and hands waiters
	// errPanicked with no recover in the way of the panic.
	var cost int64
	err = errPanicked
	defer func() { c.settle(sh, e, v, cost, err) }()
	v, cost, err = fn()
	return v, err, false
}

// settle ends e's flight with fn's outcome: commit v at cost if err is
// nil and it fits, drop e otherwise, then hand v and err to the
// waiters, if any parked, and release them. A pending entry is never
// evicted, so e still owns its fingerprint.
func (c *LRU[K, V]) settle(sh *lruShard[K, V], e *lruEntry[K, V], v V, cost int64, err error) {
	cost = max(cost, 1)
	sh.mu.Lock()
	fl := e.fl
	e.pending, e.fl = false, nil
	if err == nil && cost <= c.perShard {
		e.v = v
		sh.admit(e, cost, c.perShard)
	} else {
		delete(sh.m, e.fp)
		sh.recycle(e)
	}
	sh.mu.Unlock()
	if fl != nil {
		fl.v, fl.err = v, err
		fl.done.Done()
	}
}

// take pops a zeroed entry off the free list, refilling the list with
// one chunk of entries when it is empty.
func (sh *lruShard[K, V]) take() *lruEntry[K, V] {
	if sh.free == nil {
		chunk := make([]lruEntry[K, V], max(chunkBytes/unsafe.Sizeof(lruEntry[K, V]{}), 1))
		for i := range len(chunk) - 1 {
			chunk[i].next = &chunk[i+1]
		}
		sh.free = &chunk[0]
	}
	e := sh.free
	sh.free, e.next = e.next, nil
	return e
}

// recycle zeroes e, so that its slot keeps neither key nor value alive,
// and pushes it on the free list.
func (sh *lruShard[K, V]) recycle(e *lruEntry[K, V]) {
	*e = lruEntry[K, V]{next: sh.free}
	sh.free = e
}

// admit links e, already in the map, as most recently used, charges
// its cost and evicts from the tail until the shard is within budget.
// cost <= budget, so e itself is never the victim. A victim's slot goes
// back to the free list.
func (sh *lruShard[K, V]) admit(e *lruEntry[K, V], cost, budget int64) {
	e.cost = cost
	sh.pushFront(e)
	sh.bytes += cost
	for sh.bytes > budget {
		victim := sh.tail
		sh.unlink(victim)
		delete(sh.m, victim.fp)
		sh.bytes -= victim.cost
		sh.evictions++
		sh.recycle(victim)
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
