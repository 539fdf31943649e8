package server

import (
	"sync"
	"time"
)

// tenantLimiter is the admission-control rate limiter: one token
// bucket per tenant, refilled continuously at rate tokens/second up to
// burst. POST /v1/eval and POST /v1/campaign each spend one token; an
// empty bucket yields 429 + Retry-After instead of unbounded work.
//
// Buckets are created on first use. Tenant names are the client's to
// choose, so buckets also go: one that has refilled to burst is
// indistinguishable from a new one and is deleted by a sweep, run
// whenever the map has doubled since the last, which keeps the sweeps'
// cost amortized constant per new tenant. The clock is injectable for
// tests.
type tenantLimiter struct {
	rate  float64 // tokens per second; <= 0 disables the limiter
	burst float64 // bucket capacity
	now   func() time.Time

	mu      sync.Mutex
	buckets map[string]*bucket
	swept   int // len(buckets) after the last sweep
}

type bucket struct {
	tokens float64
	last   time.Time
}

// newTenantLimiter builds a limiter refilling rate tokens/second with
// capacity burst. burst < 1 is clamped to 1 (a bucket that can never
// hold a whole token admits nothing). rate <= 0 returns nil: a nil
// limiter admits everything.
func newTenantLimiter(rate float64, burst int) *tenantLimiter {
	if rate <= 0 {
		return nil
	}
	b := float64(burst)
	if b < 1 {
		b = 1
	}
	return &tenantLimiter{
		rate:    rate,
		burst:   b,
		now:     time.Now,
		buckets: make(map[string]*bucket),
	}
}

// allow spends one token from tenant's bucket. When the bucket is
// empty it reports false plus how long until a whole token will have
// refilled — the Retry-After the caller surfaces.
func (l *tenantLimiter) allow(tenant string) (bool, time.Duration) {
	if l == nil {
		return true, 0
	}
	now := l.now()
	l.mu.Lock()
	defer l.mu.Unlock()
	b, ok := l.buckets[tenant]
	if !ok {
		if len(l.buckets) >= 2*l.swept {
			for t, b := range l.buckets {
				if b.tokens+now.Sub(b.last).Seconds()*l.rate >= l.burst {
					delete(l.buckets, t)
				}
			}
			l.swept = len(l.buckets)
		}
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[tenant] = b
	}
	if elapsed := now.Sub(b.last).Seconds(); elapsed > 0 {
		b.tokens += elapsed * l.rate
		if b.tokens > l.burst {
			b.tokens = l.burst
		}
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	wait := time.Duration((1 - b.tokens) / l.rate * float64(time.Second))
	return false, wait
}
