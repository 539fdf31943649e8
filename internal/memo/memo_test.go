package memo

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestDoSingleflight: concurrent misses on one key run fn exactly once;
// every caller observes the winner's value.
func TestDoSingleflight(t *testing.T) {
	c := New[string, int](100)
	var calls atomic.Int64
	gate := make(chan struct{})
	const workers = 32
	var wg sync.WaitGroup
	results := make([]int, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-gate
			results[i] = c.Do("k", func() int {
				calls.Add(1)
				return 42
			})
		}(i)
	}
	close(gate)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Errorf("fn ran %d times for one key, want 1", got)
	}
	for i, r := range results {
		if r != 42 {
			t.Errorf("caller %d got %d, want 42", i, r)
		}
	}
	if c.n.Load() != 1 {
		t.Errorf("Len = %d, want 1", c.n.Load())
	}
}

// TestDoFullCacheComputesFresh: a full cache serves existing hits and
// computes everything else without storing.
func TestDoFullCacheComputesFresh(t *testing.T) {
	c := New[int, int](2)
	for i := 0; i < 10; i++ {
		if got := c.Do(i, func() int { return i * i }); got != i*i {
			t.Fatalf("Do(%d) = %d", i, got)
		}
	}
	if c.n.Load() != 2 {
		t.Errorf("Len = %d, want 2 (cap)", c.n.Load())
	}
	// Stored keys still hit without recomputing.
	var called bool
	if got := c.Do(0, func() int { called = true; return -1 }); got != 0 || called {
		t.Errorf("full cache missed a stored key: got %d, called=%v", got, called)
	}
}

// TestLenBoundUnderConcurrentInserts is the documented cap contract:
// with P goroutines hammering distinct keys, Len never exceeds
// max + P − 1 — the overshoot is bounded by worker count, not traffic.
func TestLenBoundUnderConcurrentInserts(t *testing.T) {
	const max = 256
	c := New[int, int](max)
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 16 // hammer with real concurrency even on 1-core CI
	}
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				key := w*perWorker + i // all distinct
				c.Do(key, func() int { return key })
			}
		}(w)
	}
	wg.Wait()
	bound := int64(max + workers)
	if got := c.n.Load(); got > bound {
		t.Errorf("Len = %d after concurrent inserts, want <= %d (max %d + %d workers)", got, bound, max, workers)
	}
	if got := c.n.Load(); got < max {
		t.Errorf("Len = %d, cache stopped short of its cap %d", got, max)
	}
}

// TestDoPanicUnparksWaiters: a panicking fn must not leave waiters
// parked forever or freeze a broken entry in.
func TestDoPanicUnparksWaiters(t *testing.T) {
	c := New[string, int](10)
	func() {
		defer func() { recover() }()
		c.Do("k", func() int { panic("boom") })
	}()
	// The entry was dropped: the next call recomputes and succeeds.
	if got := c.Do("k", func() int { return 7 }); got != 7 {
		t.Errorf("post-panic Do = %d, want 7", got)
	}
}
