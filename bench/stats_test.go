package main

import (
	"math"
	"testing"
)

func TestQuantiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if xs[0] != 5 {
		t.Error("median sorted its argument in place")
	}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2 || q2 != 3 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v, want 2 3 4", q1, q2, q3)
	}
	if got := median([]float64{1, 2}); got != 1.5 {
		t.Errorf("median of two = %v, want 1.5 (interpolated)", got)
	}
	if got := quantile([]float64{10, 20, 30, 40}, 0.25); got != 17.5 {
		t.Errorf("quantile(0.25) = %v, want 17.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

func TestPercentileDurIsNearestRank(t *testing.T) {
	sorted := make([]int64, 100)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.50, 50}, {0.95, 95}, {0.99, 99}, {0.999, 100}, {0, 1}, {1, 100}} {
		if got := percentileDur(sorted, c.q); got != c.want {
			t.Errorf("percentileDur(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if percentileDur(nil, 0.5) != 0 {
		t.Error("no samples should read 0")
	}
}

func TestWorsening(t *testing.T) {
	if got := worsening(100, 90, true); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("throughput 100 -> 90 worsens by %v, want 0.10", got)
	}
	if got := worsening(100, 110, true); got >= 0 {
		t.Errorf("throughput 100 -> 110 should not worsen, got %v", got)
	}
	if got := worsening(200, 206, false); math.Abs(got-0.03) > 1e-12 {
		t.Errorf("allocs 200 -> 206 worsens by %v, want 0.03", got)
	}
}

func TestOutputsCountWrongOps(t *testing.T) {
	o := outputs{width: 2}
	good := []float64{1, 0, 0.5, 1, 0, 0}
	o.record(good)
	o.record(good)
	stray := append([]float64(nil), good...)
	stray[5] = 1
	o.record(stray)
	if got := o.failedOps(good); got != 3 {
		t.Errorf("one stray vector of 3 ops: failedOps = %d, want 3", got)
	}
	want := append([]float64(nil), good...)
	want[2] = 0.25 // op 1 of the reference differs from what was recorded
	if got := o.failedOps(want); got != 2*1+3 {
		t.Errorf("failedOps = %d, want 5 (op 1 in both good vectors, all of the stray)", got)
	}
	if got := o.failedOps(good[:4]); got != 9 {
		t.Errorf("a reference of another shape fails every op: got %d, want 9", got)
	}
}
