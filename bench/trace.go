package main

import (
	"bufio"
	"crypto/sha256"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// layer names one boundary the harness records spans at. The names are
// the repository's module names, so a span's layer says whose time it
// is.
type layer uint8

const (
	lOp layer = iota // one (model, problem) pair, from generation to score
	lDispatch
	lGenerate
	lPostprocess
	lScore
	lBLEU
	lEditDist
	lExact
	lKVExact
	lKVWildcard
	lEngine
	lRun
	lStoreGet
	lStorePut
	lStoreGetGen
	lStorePutGen
	lClient
	lHandler
	numLayers
)

var layerNames = [numLayers]string{
	"campaign.op", "inference.dispatch", "llm.generate", "llm.postprocess",
	"score.score_answer", "textmetrics.bleu", "textmetrics.editdist", "textmetrics.exact",
	"yamlmatch.kv_exact", "yamlmatch.kv_wildcard", "engine.unittest", "unittest.run",
	"store.get", "store.put", "store.getgen", "store.putgen",
	"client.eval", "server.handler",
}

// contentKey is the leading 16 bytes of the digests that address one
// generation or one unit-test execution — enough to be unique over a
// campaign, and small enough to copy into every span.
type contentKey [16]byte

func genContentKey(k [sha256.Size]byte) (c contentKey) {
	copy(c[:], k[:16])
	return c
}

func execContentKey(test, answer [sha256.Size]byte) (c contentKey) {
	copy(c[:8], test[:8])
	copy(c[8:], answer[:8])
	return c
}

// span is one call into a layer. Spans the harness's own closures
// record know their op and parent when they begin. Spans recorded by
// the timing wrappers do not: the seams they sit behind
// (engine.Executor, engine.CacheStore, inference.GenStore, and a
// Provider below a dispatcher that swaps the context) pass no caller
// identity, only content. Those spans carry the content key instead,
// and resolve finds their parent after the run.
type span struct {
	layer  layer
	ok     bool  // store reads: found; unittest.run: passed
	family uint8 // unittest.run: index into families
	op     int32
	parent int32
	start  int64 // ns since the tracer's epoch
	end    int64
	key    contentKey
}

// callArg keeps what a Provider or Executor call was given, so that
// its content key can be worked out after the run instead of inside
// the parent's span: (model, problem ID) for a generation, (unit-test
// script, answer) for an execution.
type callArg struct {
	span int32
	a, b string
}

// tracer holds every span of one traced rep in memory, preallocated;
// nothing is written or computed until the rep is over. Slots are
// handed out by one atomic counter: the harness cannot tell goroutines
// apart from inside a wrapper, and at a few hundred thousand spans a
// second the counter is not contended.
type tracer struct {
	epoch   time.Time
	spans   []span
	next    atomic.Int64
	args    []callArg
	nextArg atomic.Int64
	dropped atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, capacity), args: make([]callArg, capacity/2)}
}

func (t *tracer) reset() {
	t.next.Store(0)
	t.nextArg.Store(0)
	t.epoch = time.Now()
}

// begin opens a span and returns its index, or -1 when the buffer is
// full (counted, and reported as a failed trace).
func (t *tracer) begin(l layer, op, parent int32) int32 {
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return -1
	}
	t.spans[i] = span{layer: l, op: op, parent: parent, start: int64(time.Since(t.epoch))}
	return int32(i)
}

func (t *tracer) end(i int32) {
	if i >= 0 {
		t.spans[i].end = int64(time.Since(t.epoch))
	}
}

// arg notes what the call recorded as span i was given.
func (t *tracer) arg(i int32, a, b string) {
	if i < 0 {
		return
	}
	if n := t.nextArg.Add(1) - 1; n < int64(len(t.args)) {
		t.args[n] = callArg{span: i, a: a, b: b}
	} else {
		t.dropped.Add(1)
	}
}

// recorded is the spans of the current rep.
func (t *tracer) recorded() []span {
	n := t.next.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// opInfo is what the harness knows of one op's inputs: enough to name
// the generation and the unit-test execution it causes. Op ids count on
// through the campaigns or passes of a rep, so op i has inputs
// i mod len(infos).
type opInfo struct {
	model, problemID string
	gen, exec        contentKey
}

func newOpInfo(model, problemID string, genKey [sha256.Size]byte, test, answer string) opInfo {
	return opInfo{
		model: model, problemID: problemID,
		gen:  genContentKey(genKey),
		exec: execContentKey(sha256.Sum256([]byte(test)), sha256.Sum256([]byte(answer))),
	}
}

// resolve gives every wrapper span its parent: the dispatch, engine or
// handler span of an op with the same content key whose interval
// contains it. Generation keys are unique in a campaign. Execution keys
// are shared by the ops the engine memoises together, but its
// singleflight runs the store lookup and the executor inside exactly
// one caller, whose span contains them; when a parked waiter's span
// contains them too, the earlier-started span is the caller in all but
// a scheduling race, and the layer totals are the same either way.
func (t *tracer) resolve(infos []opInfo) {
	spans := t.recorded()
	digests := map[string][sha256.Size]byte{}
	digest := func(s string) [sha256.Size]byte {
		d, ok := digests[s]
		if !ok {
			d = sha256.Sum256([]byte(s))
			digests[s] = d
		}
		return d
	}
	type generation struct{ model, problemID string }
	genKeys := make(map[generation]contentKey, len(infos))
	for _, in := range infos {
		genKeys[generation{in.model, in.problemID}] = in.gen
	}
	for _, a := range t.args[:min(t.nextArg.Load(), int64(len(t.args)))] {
		if s := &spans[a.span]; s.layer == lGenerate {
			s.key = genKeys[generation{a.a, a.b}]
		} else {
			s.key = execContentKey(digest(a.a), digest(a.b))
		}
	}
	keys := func(op int32) (gen, exec contentKey) {
		in := infos[int(op)%len(infos)]
		return in.gen, in.exec
	}
	genParents := map[contentKey][]int32{}
	execParents := map[contentKey][]int32{}
	for i, s := range spans {
		if s.op < 0 {
			continue
		}
		switch s.layer {
		case lDispatch:
			g, _ := keys(s.op)
			genParents[g] = append(genParents[g], int32(i))
		case lEngine:
			_, e := keys(s.op)
			execParents[e] = append(execParents[e], int32(i))
		case lHandler:
			g, e := keys(s.op)
			genParents[g] = append(genParents[g], int32(i))
			execParents[e] = append(execParents[e], int32(i))
		}
	}
	for i := range spans {
		s := &spans[i]
		var candidates []int32
		switch s.layer {
		case lGenerate, lStoreGetGen, lStorePutGen:
			candidates = genParents[s.key]
		case lRun, lStoreGet, lStorePut:
			candidates = execParents[s.key]
		default:
			continue
		}
		best := int32(-1)
		for _, c := range candidates {
			p := spans[c]
			if p.start <= s.start && s.end <= p.end && (best < 0 || p.start < spans[best].start) {
				best = c
			}
		}
		if best >= 0 {
			s.parent, s.op = best, spans[best].op
		}
	}
}

// selfTimes returns each span's duration minus the part of it its
// child spans cover. A span's children run one after another on the
// caller's goroutine, so the covered part is the sum of the children,
// each clipped to the parent.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.end - s.start
		if s.parent < 0 {
			continue
		}
		p := spans[s.parent]
		covered := min(s.end, p.end) - max(s.start, p.start)
		if covered > 0 {
			self[s.parent] -= covered
		}
	}
	return self
}

// layerTotals is what one layer (or one class of a layer's calls) did
// over the traced reps.
type layerTotals struct {
	calls  int64
	selfNs int64
}

func (l layerTotals) usPerCall() float64 {
	if l.calls == 0 {
		return 0
	}
	return float64(l.selfNs) / float64(l.calls) / 1e3
}

// ledger accumulates the traced reps.
type ledger struct {
	layers [numLayers]layerTotals

	dispatchMiss, dispatchHit layerTotals // with / without a provider call below
	engineMiss, engineHit     layerTotals // with / without an execution below
	storeGetHit, storeGetMiss int64
	runByFamily               [len(families)]layerTotals
	runPassed                 int64

	leafNs     int64 // time in spans with no child
	unresolved int64 // wrapper spans that found no parent
	wallNs     int64 // traced wall time
	ops        int64
}

var families = [...]string{"kubernetes", "envoy", "istio", "compose", "helm"}

func familyIndex(category string) uint8 {
	for i, f := range families {
		if f == category {
			return uint8(i)
		}
	}
	return 0
}

// fold adds the current rep's spans to the ledger. Call after resolve.
func (lg *ledger) fold(spans []span) {
	self := selfTimes(spans)
	hasChild := make([]bool, len(spans))
	below := make([]layer, len(spans)) // numLayers = none; else lGenerate / lRun seen below
	for i := range below {
		below[i] = numLayers
	}
	for _, s := range spans {
		if s.parent >= 0 {
			hasChild[s.parent] = true
			if s.layer == lGenerate || s.layer == lRun {
				below[s.parent] = s.layer
			}
		}
	}
	add := func(t *layerTotals, ns int64) { t.calls++; t.selfNs += ns }
	for i, s := range spans {
		add(&lg.layers[s.layer], self[i])
		if !hasChild[i] {
			lg.leafNs += s.end - s.start
		}
		switch s.layer {
		case lDispatch:
			if below[i] == lGenerate {
				add(&lg.dispatchMiss, self[i])
			} else {
				add(&lg.dispatchHit, self[i])
			}
		case lEngine:
			if below[i] == lRun {
				add(&lg.engineMiss, self[i])
			} else {
				add(&lg.engineHit, self[i])
			}
		case lRun:
			add(&lg.runByFamily[s.family], self[i])
			if s.ok {
				lg.runPassed++
			}
		case lStoreGet, lStoreGetGen:
			if s.ok {
				lg.storeGetHit++
			} else {
				lg.storeGetMiss++
			}
		}
		switch s.layer {
		case lGenerate, lRun, lStoreGet, lStorePut, lStoreGetGen, lStorePutGen:
			if s.parent < 0 {
				lg.unresolved++
			}
		}
	}
}

// writeChromeTrace writes spans as Chrome trace-event JSON ("X"
// complete events, µs). A track (tid) is one op, so a viewer shows
// each op's layers nested; wrapper spans that found no parent share
// track 0.
func writeChromeTrace(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	order := make([]int32, len(spans))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool { return spans[order[a]].start < spans[order[b]].start })
	buf := make([]byte, 0, 256)
	w.WriteString(`{"displayTimeUnit":"ns","traceEvents":[` + "\n")
	for n, i := range order {
		s := spans[i]
		buf = buf[:0]
		if n > 0 {
			buf = append(buf, ",\n"...)
		}
		buf = append(buf, `{"name":"`...)
		buf = append(buf, layerNames[s.layer]...)
		buf = append(buf, `","ph":"X","pid":1,"tid":`...)
		buf = strconv.AppendInt(buf, int64(s.op)+1, 10)
		buf = append(buf, `,"ts":`...)
		buf = strconv.AppendFloat(buf, float64(s.start)/1e3, 'f', 3, 64)
		buf = append(buf, `,"dur":`...)
		buf = strconv.AppendFloat(buf, float64(s.end-s.start)/1e3, 'f', 3, 64)
		buf = append(buf, `,"args":{"span":`...)
		buf = strconv.AppendInt(buf, int64(i), 10)
		buf = append(buf, `,"parent":`...)
		buf = strconv.AppendInt(buf, int64(s.parent), 10)
		buf = append(buf, `,"op":`...)
		buf = strconv.AppendInt(buf, int64(s.op), 10)
		buf = append(buf, "}}"...)
		w.Write(buf)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
