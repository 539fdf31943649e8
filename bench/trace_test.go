package main

import (
	"crypto/sha256"
	"testing"
)

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{layer: lOp, parent: -1, start: 0, end: 100},
		{layer: lDispatch, parent: 0, start: 10, end: 40},
		{layer: lGenerate, parent: 1, start: 15, end: 35},
		{layer: lScore, parent: 0, start: 60, end: 90},
		// A child that outlives its parent counts only where it overlaps.
		{layer: lEngine, parent: 3, start: 80, end: 95},
	}
	want := []int64{100 - 30 - 30, 30 - 20, 20, 30 - 10, 15}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, layerNames[spans[i].layer], got[i], want[i])
		}
	}
}

func TestResolveFindsTheContainingParent(t *testing.T) {
	test, answer := "kubectl apply", "kind: Pod"
	info := []opInfo{
		newOpInfo("gpt-4", "p1", sha256.Sum256([]byte("g0")), test, answer),
		newOpInfo("gpt-3.5", "p1", sha256.Sum256([]byte("g1")), test, answer), // same execution as op 0
	}
	tr := newTracer(16)
	add := func(l layer, op int32, start, end int64, key contentKey) int32 {
		i := tr.begin(l, op, -1)
		s := &tr.spans[i]
		s.start, s.end, s.key = start, end, key
		return i
	}
	d0 := add(lDispatch, 0, 0, 50, contentKey{})
	d1 := add(lDispatch, 1, 5, 60, contentKey{})
	gen1 := add(lGenerate, -1, 10, 40, contentKey{})
	tr.arg(gen1, "gpt-3.5", "p1")
	putgen0 := add(lStorePutGen, -1, 41, 45, info[0].gen)
	// Both engine spans contain the execution; op 1 entered first.
	e0 := add(lEngine, 0, 72, 200, contentKey{})
	e1 := add(lEngine, 1, 70, 210, contentKey{})
	run := add(lRun, -1, 80, 180, contentKey{})
	tr.arg(run, test, answer)
	stray := add(lStoreGet, -1, 300, 310, info[0].exec) // outside every engine span

	tr.resolve(info)
	spans := tr.recorded()
	for _, c := range []struct {
		name       string
		span, want int32
	}{
		{"llm.generate by (model, problem)", gen1, d1},
		{"store.putgen by key", putgen0, d0},
		{"unittest.run by content, earliest container", run, e1},
		{"store.get outside any parent", stray, -1},
	} {
		if got := spans[c.span].parent; got != c.want {
			t.Errorf("%s: parent = %d, want %d", c.name, got, c.want)
		}
	}
	if spans[run].op != 1 || spans[gen1].op != 1 || spans[putgen0].op != 0 {
		t.Errorf("resolved spans should take their parent's op: run %d gen %d putgen %d", spans[run].op, spans[gen1].op, spans[putgen0].op)
	}

	var lg ledger
	lg.fold(spans)
	if lg.engineMiss.calls != 1 || lg.engineHit.calls != 1 {
		t.Errorf("engine calls: %d with an execution below, %d without; want 1 and 1", lg.engineMiss.calls, lg.engineHit.calls)
	}
	if want := int64(210-70) - (180 - 80); lg.engineMiss.selfNs != want {
		t.Errorf("engine miss self time = %d, want %d", lg.engineMiss.selfNs, want)
	}
	if lg.dispatchMiss.calls != 1 || lg.dispatchHit.calls != 1 {
		t.Errorf("dispatch calls: %d with a provider call below, %d without; want 1 and 1", lg.dispatchMiss.calls, lg.dispatchHit.calls)
	}
	if lg.unresolved != 1 {
		t.Errorf("unresolved wrapper spans = %d, want 1", lg.unresolved)
	}
	_ = e0
}

func TestTracerCountsDroppedSpans(t *testing.T) {
	tr := newTracer(2)
	tr.begin(lOp, 0, -1)
	tr.begin(lOp, 1, -1)
	if i := tr.begin(lOp, 2, -1); i != -1 {
		t.Errorf("begin on a full buffer = %d, want -1", i)
	}
	tr.end(-1) // must not panic
	if tr.dropped.Load() != 1 || len(tr.recorded()) != 2 {
		t.Errorf("dropped %d recorded %d, want 1 and 2", tr.dropped.Load(), len(tr.recorded()))
	}
	tr.reset()
	if len(tr.recorded()) != 0 {
		t.Error("reset should forget the spans")
	}
}
