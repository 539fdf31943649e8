package memo

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func intHash(k int) uint32 { return uint32(k) * 2654435761 }

// oneShard routes every key to shard 0, so eviction order is
// deterministic; perShard sizes a budget that gives each shard n.
func oneShard(int) uint32    { return 0 }
func perShard(n int64) int64 { return n * int64(shardCount()) }

// val is an fn for Do that yields v at cost.
func val(v int, cost int64) func() (int, int64, error) {
	return func() (int, int64, error) { return v, cost, nil }
}

// inserters are the two ways a value enters an LRU. The budget cases
// below hold for both.
var inserters = []struct {
	name string
	put  func(c *LRU[int, int], k, v int, cost int64)
}{
	{"Add", func(c *LRU[int, int], k, v int, cost int64) { c.Add(k, v, cost) }},
	{"Do", func(c *LRU[int, int], k, v int, cost int64) { c.Do(k, val(v, cost)) }},
}

// TestBoundedHitMiss: basic add/get plus the hit/miss counters the
// store's stats surface reports; Do counts into the same pair.
func TestBoundedHitMiss(t *testing.T) {
	c := NewLRU[int, string](intHash, 1<<20)
	if _, ok := c.Get(1); ok {
		t.Fatal("empty cache hit")
	}
	c.Add(1, "one", 3)
	if v, ok := c.Get(1); !ok || v != "one" {
		t.Fatalf("Get(1) = %q, %v", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Bytes != 3 {
		t.Fatalf("Stats = %+v, want 1 hit / 1 miss / 1 entry / 3 bytes", st)
	}
	two := func() (string, int64, error) { return "two", 4, nil }
	c.Do(2, two)
	if v, _, hit := c.Do(2, two); !hit || v != "two" {
		t.Fatalf("second Do(2) = %q, hit=%v", v, hit)
	}
	st = c.Stats()
	if st.Hits != 2 || st.Misses != 2 || st.Entries != 2 || st.Bytes != 7 || st.Capacity != 1<<20 {
		t.Fatalf("Stats = %+v, want 2 hits / 2 misses / 2 entries / 7 of 1 MiB", st)
	}
}

// TestBoundedEvictsLRU: a shard over budget sheds its least recently
// used entries, and a Get refreshes recency.
func TestBoundedEvictsLRU(t *testing.T) {
	for _, in := range inserters {
		t.Run(in.name, func(t *testing.T) {
			c := NewLRU[int, int](oneShard, perShard(30))
			in.put(c, 1, 1, 10)
			in.put(c, 2, 2, 10)
			in.put(c, 3, 3, 10)
			c.Get(1) // refresh 1: evicting now should drop 2 first
			in.put(c, 4, 4, 10)
			if _, ok := c.Get(2); ok {
				t.Fatal("LRU entry 2 survived eviction")
			}
			for _, k := range []int{1, 3, 4} {
				if _, ok := c.Get(k); !ok {
					t.Fatalf("entry %d evicted out of LRU order", k)
				}
			}
			if st := c.Stats(); st.Evictions != 1 || st.Bytes != 30 {
				t.Fatalf("Stats = %+v, want 1 eviction / 30 bytes", st)
			}
		})
	}
}

// TestBoundedStaysUnderBudget is the RSS contract: whatever passes
// through, resident cost never exceeds the configured capacity.
func TestBoundedStaysUnderBudget(t *testing.T) {
	for _, in := range inserters {
		t.Run(in.name, func(t *testing.T) {
			c := NewLRU[int, int](intHash, 4096)
			for i := 0; i < 10000; i++ {
				in.put(c, i, i, 64)
				if st := c.Stats(); st.Bytes > st.Capacity {
					t.Fatalf("resident %d bytes exceeds capacity %d after %d inserts", st.Bytes, st.Capacity, i+1)
				}
			}
			if c.Stats().Entries == 0 {
				t.Fatal("everything was evicted — budget accounting is broken")
			}
		})
	}
}

// TestBoundedOversizedEntryNotCached: an entry costlier than a whole
// shard's budget is refused rather than thrashing the shard.
func TestBoundedOversizedEntryNotCached(t *testing.T) {
	for _, in := range inserters {
		t.Run(in.name, func(t *testing.T) {
			c := NewLRU[int, int](intHash, 1) // 1 byte per shard after the floor
			in.put(c, 1, 1, 1<<20)
			if _, ok := c.Get(1); ok {
				t.Fatal("oversized entry was cached")
			}
			if st := c.Stats(); st.Bytes != 0 || st.Entries != 0 {
				t.Fatalf("Stats = %+v after refusing an oversized entry", st)
			}
		})
	}
}

// TestBoundedUpdateAdjustsCost: re-adding a key replaces its value and
// re-charges its cost instead of double counting.
func TestBoundedUpdateAdjustsCost(t *testing.T) {
	c := NewLRU[int, string](intHash, 1<<20)
	c.Add(1, "small", 10)
	c.Add(1, "larger", 500)
	if v, _ := c.Get(1); v != "larger" {
		t.Fatalf("Get = %q after update", v)
	}
	if st := c.Stats(); st.Bytes != 500 || st.Entries != 1 || st.Evictions != 0 {
		t.Fatalf("Stats = %+v after update, want 500 bytes / 1 entry / 0 evictions", st)
	}
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
				c.Add(k, k, 32)
				c.Get(k)
				c.Get(k + 1)
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
	s := NewLRU[string, int](func(k string) uint32 {
		var h uint32 = 2166136261
		for i := 0; i < len(k); i++ {
			h = (h ^ uint32(k[i])) * 16777619
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
		c.Add(k, k, 10)
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
	if v, ok := c.Get(1); !ok || v != 11 {
		t.Fatalf("Get(1) = %d, %v after commit", v, ok)
	}
	if st := c.Stats(); st.Evictions != 6 || st.Bytes != 30 || st.Entries != 3 {
		t.Fatalf("after commit: Stats = %+v, want 6 evictions / 30 bytes / 3 entries", st)
	}
}

// TestAddDisplacesInFlight: an Add for a key being computed wins the
// slot; the computation still answers its own callers but does not
// overwrite or double-charge.
func TestAddDisplacesInFlight(t *testing.T) {
	c := NewLRU[int, int](intHash, 1<<20)
	release, done := blockedDo(c, 1, val(11, 10))
	c.Add(1, 99, 20)
	close(release)
	if got := <-done; got[0] != 11 {
		t.Fatalf("computing caller got %v, want its own 11", got)
	}
	if v, ok := c.Get(1); !ok || v != 99 {
		t.Fatalf("Get(1) = %d, %v; want the added 99", v, ok)
	}
	if st := c.Stats(); st.Bytes != 20 || st.Entries != 1 {
		t.Fatalf("Stats = %+v, want 20 bytes / 1 entry", st)
	}
}

// TestParkedWaiterOnDisplacedEntry: an Add that displaces an entry
// callers are parked on leaves them parked on the computation, which
// hands them its own value and releases them once — a second release
// would panic in the computing caller, which blockedDo reports.
func TestParkedWaiterOnDisplacedEntry(t *testing.T) {
	c := NewLRU[int, int](intHash, 1<<20)
	release, done := blockedDo(c, 1, val(11, 10))
	parked := make(chan int, 2)
	for range 2 {
		go func() {
			v, err, hit := c.Do(1, val(-1, 10))
			if err != nil || !hit {
				t.Errorf("parked caller: err=%v, hit=%v", err, hit)
			}
			parked <- v
		}()
	}
	waitHits(c, 2)
	if _, ok := c.Get(1); ok {
		t.Fatal("Get served an entry in flight")
	}
	c.Add(1, 99, 20)
	close(release)
	if got := <-done; got[0] != 11 || got[1] != nil {
		t.Fatalf("computing caller got %v, want its own 11", got)
	}
	for range 2 {
		if v := <-parked; v != 11 {
			t.Fatalf("parked caller got %d, want the computed 11", v)
		}
	}
	if v, ok := c.Get(1); !ok || v != 99 {
		t.Fatalf("Get(1) = %d, %v; want the added 99", v, ok)
	}
	if st := c.Stats(); st.Bytes != 20 || st.Entries != 1 {
		t.Fatalf("Stats = %+v, want 20 bytes / 1 entry", st)
	}
}

// TestDoMissAllocs: an uncontended miss allocates its entry and nothing
// else — no rendezvous unless a caller parks — and a hit allocates
// nothing. The one-unit shard keeps one committed entry, each miss
// evicting the last, so the map never grows.
func TestDoMissAllocs(t *testing.T) {
	c := NewLRU[int, int](oneShard, 0)
	key := 0
	fn := func() (int, int64, error) { return key, 1, nil }
	miss := testing.AllocsPerRun(100, func() {
		key++
		if _, _, hit := c.Do(key, fn); hit {
			t.Fatal("a new key hit")
		}
	})
	hit := testing.AllocsPerRun(100, func() {
		if _, _, hit := c.Do(key, fn); !hit {
			t.Fatal("the last key missed")
		}
	})
	if miss != 1 || hit != 0 {
		t.Errorf("Do allocates %v per miss and %v per hit, want 1 and 0", miss, hit)
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
