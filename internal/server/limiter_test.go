package server

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"cloudeval/internal/core"
)

// TestTenantLimiterRefill drives the token bucket on a fake clock:
// burst spends down, denial reports the exact refill wait, and time
// restores tokens up to (and never past) the burst.
func TestTenantLimiterRefill(t *testing.T) {
	l := newTenantLimiter(10, 2) // 10 tokens/s, burst 2
	now := time.Unix(1000, 0)
	l.now = func() time.Time { return now }

	for i := 0; i < 2; i++ {
		if ok, _ := l.allow("a"); !ok {
			t.Fatalf("request %d within burst denied", i)
		}
	}
	ok, retry := l.allow("a")
	if ok {
		t.Fatal("request beyond burst admitted")
	}
	// An empty bucket at 10 tokens/s refills one token in 100ms.
	if retry <= 0 || retry > 100*time.Millisecond {
		t.Errorf("retry hint = %v, want (0, 100ms]", retry)
	}

	// 150ms later: one token refilled, a second not yet.
	now = now.Add(150 * time.Millisecond)
	if ok, _ := l.allow("a"); !ok {
		t.Error("request after refill denied")
	}
	if ok, _ := l.allow("a"); ok {
		t.Error("second request admitted before its token refilled")
	}

	// A long idle stretch caps at burst, not unbounded credit.
	now = now.Add(time.Hour)
	for i := 0; i < 2; i++ {
		if ok, _ := l.allow("a"); !ok {
			t.Fatalf("request %d after long idle denied", i)
		}
	}
	if ok, _ := l.allow("a"); ok {
		t.Error("idle time accumulated more than burst tokens")
	}
}

// TestTenantLimiterIsolation: tenants draw from independent buckets.
func TestTenantLimiterIsolation(t *testing.T) {
	l := newTenantLimiter(0.001, 1)
	now := time.Unix(1000, 0)
	l.now = func() time.Time { return now }

	if ok, _ := l.allow("a"); !ok {
		t.Fatal("tenant a's first request denied")
	}
	if ok, _ := l.allow("a"); ok {
		t.Fatal("tenant a admitted past its burst")
	}
	if ok, _ := l.allow("b"); !ok {
		t.Error("tenant b starved by tenant a's bucket")
	}
}

// TestTenantLimiterForgetsRefilledBuckets: tenant names are the
// client's to choose, so a stream of new names must not grow the
// bucket map without bound. Each of 100,000 tenants is admitted once,
// 1ms apart; a bucket refills in 100ms, so at most about a hundred are
// not yet full at any time.
func TestTenantLimiterForgetsRefilledBuckets(t *testing.T) {
	l := newTenantLimiter(10, 2) // a spent token refills in 100ms
	now := time.Unix(1000, 0)
	l.now = func() time.Time { return now }

	peak := 0
	for i := 0; i < 100000; i++ {
		if ok, _ := l.allow(fmt.Sprintf("t%d", i)); !ok {
			t.Fatalf("tenant %d's first request denied", i)
		}
		peak = max(peak, len(l.buckets))
		now = now.Add(time.Millisecond)
	}
	if peak > 512 {
		t.Errorf("bucket map peaked at %d entries for 100 live tenants", peak)
	}

	// A bucket that is still refilling survives a sweep: its tenant
	// stays limited.
	if ok, _ := l.allow("hot"); !ok {
		t.Fatal("hot tenant's first request denied")
	}
	l.allow("hot")
	for i := 0; i < 1000; i++ {
		l.allow(fmt.Sprintf("u%d", i))
	}
	if ok, _ := l.allow("hot"); ok {
		t.Error("a sweep forgot a spent bucket: its tenant was admitted past its burst")
	}
}

// TestNilLimiterAdmitsEverything: rate 0 disables admission control.
func TestNilLimiterAdmitsEverything(t *testing.T) {
	l := newTenantLimiter(0, 5)
	if l != nil {
		t.Fatalf("rate 0 built a limiter: %+v", l)
	}
	for i := 0; i < 100; i++ {
		if ok, _ := l.allow("a"); !ok {
			t.Fatal("nil limiter denied a request")
		}
	}
}

// TestCampaignIDTenantScoping pins two contracts: the default tenant's
// campaign IDs are byte-identical to the pre-tenancy scheme (so
// existing data directories resume under the same IDs), and named
// tenants' IDs mix the tenant in.
func TestCampaignIDTenantScoping(t *testing.T) {
	ids := []string{"table4", "table2"}

	// The historical derivation: sorted IDs, comma-joined, sha256.
	sum := sha256.Sum256([]byte("table2,table4"))
	legacy := "c-" + hex.EncodeToString(sum[:6])
	if got := campaignID(core.TenantDefault, ids); got != legacy {
		t.Errorf("default-tenant campaign ID %s != legacy %s", got, legacy)
	}

	beta := campaignID("beta", ids)
	if beta == legacy {
		t.Error("named tenant shares the default tenant's campaign ID")
	}
	if campaignID("gamma", ids) == beta {
		t.Error("two named tenants share a campaign ID")
	}
	// Order-insensitive within a tenant.
	if campaignID("beta", []string{"table2", "table4"}) != beta {
		t.Error("campaign ID depends on experiment order")
	}
}
