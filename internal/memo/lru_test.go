package memo

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// intHash spreads keys over the shards; an odd multiplier is a
// bijection, so no two keys share a fingerprint.
func intHash(k int) uint64 { return uint64(k) * 0x9e3779b97f4a7c15 }

// oneShard routes every key to shard 0 under a fingerprint of its own
// (the low 16 bits, above any shard mask, are zero), so eviction order
// is deterministic; perShard sizes a budget that gives each shard n.
func oneShard(k int) uint64  { return uint64(k) << 16 }
func perShard(n int64) int64 { return n * int64(shardCount()) }

// val is an fn for Do that yields v at cost. Do is the one way a value
// enters an LRU; the budget cases below run it as their "Do" subtest.
func val(v int, cost int64) func() (int, int64, error) {
	return func() (int, int64, error) { return v, cost, nil }
}

// peek reports key's committed value without counting a hit or a miss
// or refreshing its recency.
func (c *LRU[K, V]) peek(key K) (V, bool) {
	fp := c.hash(key)
	sh := &c.shards[fp&c.mask]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.m[fp]; ok && e.key == key && !e.pending {
		return e.v, true
	}
	var zero V
	return zero, false
}

// TestBoundedHitMiss: a miss computes and commits, a hit serves the
// committed value without calling fn, and both count into the stats the
// engine and dispatcher report.
func TestBoundedHitMiss(t *testing.T) {
	c := NewLRU[int, string](intHash, 1<<20)
	if _, ok := c.peek(1); ok {
		t.Fatal("empty cache holds a value")
	}
	one := func() (string, int64, error) { return "one", 3, nil }
	if v, err, hit := c.Do(1, one); err != nil || hit || v != "one" {
		t.Fatalf("first Do(1) = %q, %v, hit=%v", v, err, hit)
	}
	other := func() (string, int64, error) { return "other", 5, nil }
	if v, err, hit := c.Do(1, other); err != nil || !hit || v != "one" {
		t.Fatalf("second Do(1) = %q, %v, hit=%v; want the committed \"one\"", v, err, hit)
	}
	c.Do(2, other)
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Entries != 2 || st.Bytes != 8 || st.Capacity != 1<<20 {
		t.Fatalf("Stats = %+v, want 1 hit / 2 misses / 2 entries / 8 of 1 MiB", st)
	}
}

// TestBoundedEvictsLRU: a shard over budget sheds its least recently
// used entries, and a hit refreshes recency.
func TestBoundedEvictsLRU(t *testing.T) {
	t.Run("Do", func(t *testing.T) {
		c := NewLRU[int, int](oneShard, perShard(30))
		for k := 1; k <= 3; k++ {
			c.Do(k, val(k, 10))
		}
		// Refresh 1: evicting now should drop 2 first.
		if v, _, hit := c.Do(1, val(-1, 10)); !hit || v != 1 {
			t.Fatalf("Do(1) = %d, hit=%v; want the committed 1", v, hit)
		}
		c.Do(4, val(4, 10))
		if _, ok := c.peek(2); ok {
			t.Fatal("LRU entry 2 survived eviction")
		}
		for _, k := range []int{1, 3, 4} {
			if v, ok := c.peek(k); !ok || v != k {
				t.Fatalf("entry %d evicted out of LRU order", k)
			}
		}
		if st := c.Stats(); st.Evictions != 1 || st.Bytes != 30 {
			t.Fatalf("Stats = %+v, want 1 eviction / 30 bytes", st)
		}
	})
}

// TestBoundedStaysUnderBudget is the RSS contract: whatever passes
// through, resident cost never exceeds the configured capacity.
func TestBoundedStaysUnderBudget(t *testing.T) {
	t.Run("Do", func(t *testing.T) {
		c := NewLRU[int, int](intHash, 4096)
		for i := 0; i < 10000; i++ {
			c.Do(i, val(i, 64))
			if st := c.Stats(); st.Bytes > st.Capacity {
				t.Fatalf("resident %d bytes exceeds capacity %d after %d inserts", st.Bytes, st.Capacity, i+1)
			}
		}
		if c.Stats().Entries == 0 {
			t.Fatal("everything was evicted — budget accounting is broken")
		}
	})
}

// TestBoundedOversizedEntryNotCached: a value costlier than a whole
// shard's budget is returned to its caller but not cached, rather than
// thrashing the shard.
func TestBoundedOversizedEntryNotCached(t *testing.T) {
	t.Run("Do", func(t *testing.T) {
		c := NewLRU[int, int](intHash, 1) // 1 byte per shard after the floor
		if v, err, _ := c.Do(1, val(1, 1<<20)); err != nil || v != 1 {
			t.Fatalf("Do = %d, %v", v, err)
		}
		if _, ok := c.peek(1); ok {
			t.Fatal("oversized entry was cached")
		}
		if st := c.Stats(); st.Bytes != 0 || st.Entries != 0 {
			t.Fatalf("Stats = %+v after refusing an oversized entry", st)
		}
	})
}

// TestBoundedConcurrent hammers one cache from many goroutines under
// -race: no torn lists, budget holds throughout.
func TestBoundedConcurrent(t *testing.T) {
	c := NewLRU[int, int](intHash, 1<<14)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := (w*2000 + i) % 512
				c.Do(k, val(k, 32))
				c.Do(k+1, val(k+1, 32))
				if v, ok := c.peek(k); ok && v != k {
					t.Errorf("key %d holds %d", k, v)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if st := c.Stats(); st.Bytes > st.Capacity {
		t.Fatalf("resident %d bytes exceeds capacity %d", st.Bytes, st.Capacity)
	}
}

// TestShardedSingleflight: one fn call per key, shared result, hit
// reporting.
func TestShardedSingleflight(t *testing.T) {
	s := NewLRU[int, int](intHash, 1<<20)
	var calls atomic.Int64
	gate := make(chan struct{})
	const workers = 32
	var wg sync.WaitGroup
	var hits atomic.Int64
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			v, err, hit := s.Do(7, func() (int, int64, error) {
				calls.Add(1)
				return 42, 1, nil
			})
			if err != nil || v != 42 {
				t.Errorf("Do = %d, %v", v, err)
			}
			if hit {
				hits.Add(1)
			}
		}()
	}
	close(gate)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Errorf("fn ran %d times, want 1", got)
	}
	if got := hits.Load(); got != workers-1 {
		t.Errorf("hits = %d, want %d (everyone but the winner)", got, workers-1)
	}
	if n := s.Stats().Entries; n != 1 {
		t.Errorf("Entries = %d, want 1", n)
	}
}

// blockedDo starts Do(key) on c with an fn that signals entered, then
// waits for release before finishing through fn; done yields Do's
// value and error, or the panic value.
func blockedDo(c *LRU[int, int], key int, fn func() (int, int64, error)) (release chan struct{}, done chan [2]any) {
	entered := make(chan struct{})
	release = make(chan struct{})
	done = make(chan [2]any, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				done <- [2]any{nil, p}
			}
		}()
		v, err, _ := c.Do(key, func() (int, int64, error) {
			close(entered)
			<-release
			return fn()
		})
		done <- [2]any{v, err}
	}()
	<-entered
	return release, done
}

// waitHits spins until c has served n hits — the only sign that a
// caller has parked on an in-flight entry.
func waitHits(c *LRU[int, int], n int64) {
	for c.Stats().Hits < n {
		runtime.Gosched()
	}
}

// TestShardedErrorsNeverCached: a computation that errors or panics is
// shared with parked waiters but leaves neither an entry nor bytes
// behind — the next call recomputes.
func TestShardedErrorsNeverCached(t *testing.T) {
	boom := errors.New("transient")
	for _, tc := range []struct {
		name    string
		fn      func() (int, int64, error)
		want    error
		wantErr any // what the computing caller sees
	}{
		{"error", func() (int, int64, error) { return 0, 50, boom }, boom, boom},
		{"panic", func() (int, int64, error) { panic("kaboom") }, errPanicked, "kaboom"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewLRU[int, int](intHash, 1<<20)
			release, done := blockedDo(c, 1, tc.fn)
			parked := make(chan error, 1)
			go func() {
				_, err, hit := c.Do(1, val(-1, 1))
				if !hit {
					t.Error("waiter ran its own fn instead of parking")
				}
				parked <- err
			}()
			waitHits(c, 1)
			close(release)
			if got := <-done; got[1] != tc.wantErr {
				t.Fatalf("computing caller got %v, want %v", got[1], tc.wantErr)
			}
			if err := <-parked; err != tc.want {
				t.Fatalf("parked waiter got %v, want %v", err, tc.want)
			}
			if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
				t.Fatalf("failed flight left %+v behind", st)
			}
			v, err, hit := c.Do(1, val(9, 1))
			if err != nil || v != 9 || hit {
				t.Errorf("retry Do = %d, %v, hit=%v; want 9, nil, false", v, err, hit)
			}
		})
	}
}

// TestShardedConcurrentDistinctKeys hammers many keys across shards
// under the race detector: every key computes exactly once.
func TestShardedConcurrentDistinctKeys(t *testing.T) {
	s := NewLRU[string, int](func(k string) uint64 {
		var h uint64 = 14695981039346656037
		for i := 0; i < len(k); i++ {
			h = (h ^ uint64(k[i])) * 1099511628211
		}
		return h
	}, 1<<20)
	const keys = 512
	var calls [keys]atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				key := fmt.Sprintf("key-%d", i)
				v, err, _ := s.Do(key, func() (int, int64, error) {
					calls[i].Add(1)
					return i, 1, nil
				})
				if err != nil || v != i {
					t.Errorf("Do(%s) = %d, %v", key, v, err)
				}
			}
		}()
	}
	wg.Wait()
	for i := range calls {
		if got := calls[i].Load(); got != 1 {
			t.Errorf("key %d computed %d times, want 1", i, got)
		}
	}
	if n := s.Stats().Entries; n != keys {
		t.Errorf("Entries = %d, want %d", n, keys)
	}
	if n := len(s.shards); n&(n-1) != 0 || n < 8 {
		t.Errorf("%d shards, want a power of two >= 8", n)
	}
}

// TestInFlightNeitherChargedNorEvicted: until it commits an entry costs
// nothing and sits outside the recency list, so a shard churning past
// its budget never picks it as the victim — callers arriving meanwhile
// still park on it instead of computing twice.
func TestInFlightNeitherChargedNorEvicted(t *testing.T) {
	c := NewLRU[int, int](oneShard, perShard(30))
	release, done := blockedDo(c, 1, val(11, 10))
	if st := c.Stats(); st.Bytes != 0 || st.Entries != 1 {
		t.Fatalf("in flight: Stats = %+v, want 0 bytes / 1 entry", st)
	}
	for k := 2; k <= 9; k++ { // 80 bytes through a 30-byte shard
		c.Do(k, val(k, 10))
	}
	if st := c.Stats(); st.Evictions != 5 || st.Bytes != 30 || st.Entries != 4 {
		t.Fatalf("after churn: Stats = %+v, want 5 evictions / 30 bytes / 3 committed + 1 in flight", st)
	}
	parked := make(chan int, 1)
	go func() {
		v, _, hit := c.Do(1, val(-1, 10))
		if !hit {
			t.Error("second caller recomputed: the in-flight entry was evicted")
		}
		parked <- v
	}()
	waitHits(c, 1)
	close(release)
	if got := <-done; got[0] != 11 || got[1] != nil {
		t.Fatalf("computing caller got %v", got)
	}
	if v := <-parked; v != 11 {
		t.Fatalf("parked caller got %d, want 11", v)
	}
	// Committing charged it and pushed out the oldest survivor.
	if v, ok := c.peek(1); !ok || v != 11 {
		t.Fatalf("peek(1) = %d, %v after commit", v, ok)
	}
	if st := c.Stats(); st.Evictions != 6 || st.Bytes != 30 || st.Entries != 3 {
		t.Fatalf("after commit: Stats = %+v, want 6 evictions / 30 bytes / 3 entries", st)
	}
}

// TestDoMissAllocs: an uncontended miss allocates nothing — its entry
// comes off the shard's free list, refilled a chunk of entries at a
// time, and no rendezvous is made unless a caller parks — and a hit
// allocates nothing. The one-unit shard keeps one committed entry, each
// miss evicting the last back onto the free list, so neither the map
// nor the list grows.
func TestDoMissAllocs(t *testing.T) {
	c := NewLRU[int, int](oneShard, 0)
	key := 0
	fn := func() (int, int64, error) { return key, 1, nil }
	const misses = 4096
	total := testing.AllocsPerRun(1, func() {
		for range misses {
			key++
			if _, _, hit := c.Do(key, fn); hit {
				t.Fatal("a new key hit")
			}
		}
	})
	hit := testing.AllocsPerRun(100, func() {
		if _, _, hit := c.Do(key, fn); !hit {
			t.Fatal("the last key missed")
		}
	})
	if miss := total / misses; miss >= 1.0/32 || hit != 0 {
		t.Errorf("Do allocates %v per miss and %v per hit, want under 1/32 and 0", miss, hit)
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Errorf("Stats = %+v, want the one committed entry", st)
	}
}

// TestConcurrentDoOverBudget: a working set many times the budget,
// walked by several goroutines in different orders, never holds more
// than the budget and always returns each key's own value.
func TestConcurrentDoOverBudget(t *testing.T) {
	const keys, cost = 4096, 32
	c := NewLRU[int, int](intHash, perShard(8*cost))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			stride := 2*w + 1 // odd, so every walk covers all keys
			for i := 0; i < 2*keys; i++ {
				k := (i * stride) % keys
				v, err, _ := c.Do(k, func() (int, int64, error) {
					if k%3 == 0 {
						runtime.Gosched() // widen the in-flight window
					}
					return k * 7, cost, nil
				})
				if err != nil || v != k*7 {
					t.Errorf("Do(%d) = %d, %v", k, v, err)
					return
				}
				if i%64 == 0 {
					if st := c.Stats(); st.Bytes > st.Capacity {
						t.Errorf("resident %d exceeds budget %d", st.Bytes, st.Capacity)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Bytes > st.Capacity || st.Evictions == 0 || st.Entries == 0 {
		t.Fatalf("Stats = %+v, want 0 < bytes <= capacity with evictions", st)
	}
	if want := st.Bytes / cost; int64(st.Entries) != want {
		t.Fatalf("%d entries but %d bytes at %d each: accounting drifted", st.Entries, st.Bytes, cost)
	}
}

// pairHash gives 2k and 2k+1 one fingerprint, in shard 0.
func pairHash(k int) uint64 { return uint64(k/2) << 16 }

// TestFingerprintCollision: a key whose fingerprint another key holds
// is computed by its own fn, in flight or not, and neither key's value
// is ever served for the other or cached over it.
func TestFingerprintCollision(t *testing.T) {
	c := NewLRU[int, int](pairHash, 1<<20)
	release, done := blockedDo(c, 2, val(20, 1))
	beside := make(chan [2]any, 1)
	go func() {
		v, err, hit := c.Do(3, val(30, 1))
		if err != nil || hit {
			t.Errorf("Do(3) beside an in-flight 2: %v, hit=%v", err, hit)
		}
		beside <- [2]any{v, hit}
	}()
	select {
	case got := <-beside:
		if got[0] != 30 {
			t.Fatalf("Do(3) beside an in-flight 2 = %v, want its own 30", got[0])
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Do(3) parked on 2's flight")
	}
	close(release)
	if got := <-done; got[0] != 20 || got[1] != nil {
		t.Fatalf("Do(2) = %v, want 20", got)
	}
	for i, want := range []int{31, 32} {
		if v, err, hit := c.Do(3, val(31+i, 1)); err != nil || hit || v != want {
			t.Fatalf("Do(3) = %d, %v, hit=%v; want a fresh %d, uncached", v, err, hit, want)
		}
	}
	if v, err, hit := c.Do(2, val(-1, 1)); err != nil || !hit || v != 20 {
		t.Fatalf("Do(2) = %d, %v, hit=%v; want the cached 20", v, err, hit)
	}
	if _, ok := c.peek(3); ok {
		t.Fatal("3 was cached over 2")
	}
	if st := c.Stats(); st.Entries != 1 || st.Bytes != 1 || st.Hits != 1 || st.Misses != 4 {
		t.Fatalf("Stats = %+v, want 1 entry of 1 byte, 1 hit, 4 misses", st)
	}
}

// TestWaiterOutlivesItsSlot: callers parked on an entry get its value
// even when the entry is evicted the moment it settles and its slot
// taken by the next key before they wake.
func TestWaiterOutlivesItsSlot(t *testing.T) {
	c := NewLRU[int, int](oneShard, perShard(1))
	release, done := blockedDo(c, 1, val(11, 1))
	sh := &c.shards[0]
	sh.mu.Lock()
	slot := sh.m[oneShard(1)]
	sh.mu.Unlock()
	const waiters = 8
	got := make(chan int, waiters)
	for range waiters {
		go func() {
			v, _, _ := c.Do(1, val(-1, 1))
			got <- v
		}()
	}
	waitHits(c, waiters)
	close(release)
	<-done
	c.Do(2, val(22, 1)) // evicts 1
	c.Do(3, val(33, 1)) // takes 1's slot off the free list
	sh.mu.Lock()
	reused := sh.m[oneShard(3)] == slot
	sh.mu.Unlock()
	if !reused {
		t.Fatal("3 did not take 1's slot: the free list is not last in, first out")
	}
	for range waiters {
		if v := <-got; v != 11 {
			t.Fatalf("a waiter on 1 got %d, want 11", v)
		}
	}
}

// TestEvictedValueCollectable: an evicted entry's slot is zeroed, so a
// value the cache no longer holds is garbage once its caller drops it:
// its finalizer runs.
func TestEvictedValueCollectable(t *testing.T) {
	type payload struct{ b [64]byte }
	c := NewLRU[int, *payload](oneShard, perShard(1))
	collected := make(chan struct{})
	c.Do(1, func() (*payload, int64, error) {
		p := new(payload)
		runtime.SetFinalizer(p, func(*payload) { close(collected) })
		return p, 1, nil
	})
	c.Do(2, func() (*payload, int64, error) { return new(payload), 1, nil }) // evicts 1
	runtime.GC()
	select {
	case <-collected:
	case <-time.After(10 * time.Second):
		t.Fatal("an evicted value is still reachable: its recycled slot keeps it")
	}
	runtime.KeepAlive(c)
}

// TestShardPadded: shards fill whole cache lines, so no two shards'
// locks share one.
func TestShardPadded(t *testing.T) {
	for _, size := range []uintptr{unsafe.Sizeof(lruShard[int, int]{}), unsafe.Sizeof(lruShard[string, [64]byte]{})} {
		if size%64 != 0 {
			t.Errorf("lruShard is %d bytes, not a multiple of 64", size)
		}
	}
}
