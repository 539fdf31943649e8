package main

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"cloudeval/internal/engine"
	"cloudeval/internal/inference"
	"cloudeval/internal/llm"
	"cloudeval/internal/score"
	"cloudeval/internal/store"
	"cloudeval/internal/unittest"
)

// workload is one set of inputs the benchmark runs. Every rep of a
// workload does the same work on the same inputs, so reps are
// exchangeable and the program's own counters repeat exactly.
type workload interface {
	// setup builds the seeded inputs and whatever is built once per
	// process. traced also builds what only a traced rep needs.
	setup(traced bool) error
	// rep runs units units of work (campaigns, passes or daemons),
	// calling m.start and m.stop around the part that is timed. A timed
	// rep is unitsPerRep of them; the warm-up is one, which touches
	// every input once and so fills every process-wide cache. A non-nil
	// tr installs the timing wrappers and records spans; end-to-end
	// metrics never come from such a rep.
	rep(m *meter, tr *tracer, units int) error
	unitsPerRep() int
	opsPerUnit() int
	// verify checks every output the timed reps kept against an
	// independent reference and returns how many ops were wrong.
	verify() (failed int)
	// infos and spansPerOp size and resolve a traced rep.
	infos() []opInfo
	spansPerOp() int
	// discardWarmup forgets what the warm-up rep recorded; latencies is
	// every request's latency since, sorted (nil where ops are not
	// requests).
	discardWarmup()
	latencies() []int64
	// counted is the program's own counters from the last rep.
	counted() counters
	// micro measures the layers no span can reach in place, on their
	// own; it returns per-layer metrics by name.
	micro() (map[string]float64, error)
}

// counters are read from the program's own Stats calls at the end of a
// campaign, a pass or a serving rep.
type counters struct {
	eng engine.Stats
	gen inference.Stats

	appended, flushes   int64
	hotHits, hotMisses  int64
	openWarmMs, closeMs float64
	bytesOnDisk         int64
}

// base is what every workload has.
type base struct {
	c      *corpus
	dir    string // scratch directory inside the checkout
	seed   int64
	units  int // campaigns, passes or daemons per timed rep
	last   counters
	failed int // ops lost to a latched error or a broken invariant
	info   []opInfo
}

func (b *base) unitsPerRep() int   { return b.units }
func (b *base) infos() []opInfo    { return b.info }
func (b *base) counted() counters  { return b.last }
func (b *base) discardWarmup()     {}
func (b *base) latencies() []int64 { return nil }

// fail records n failed ops and says why on standard error.
func (b *base) fail(n int, format string, args ...any) {
	b.failed += n
	fmt.Fprintf(os.Stderr, "FAILED (%d ops): %s\n", n, fmt.Sprintf(format, args...))
}

// pairInfos names the generation and execution of every pair.
func (b *base) pairInfos(answers []string) []opInfo {
	out := make([]opInfo, len(b.c.pairs))
	for i, pr := range b.c.pairs {
		m, p := b.c.models[pr.model], b.c.problems[pr.problem]
		key := inference.Request{Model: m.Name, Problem: p}.Key()
		out[i] = newOpInfo(m.Name, p.ID, key, p.UnitTest, answers[i])
	}
	return out
}

// outputs keeps what the timed reps produced, cheaply enough not to
// disturb them: the first result vector in full and a digest of every
// later one. verify compares the first with the reference value by
// value; a later vector whose digest differs from the first's is wrong
// as a whole.
type outputs struct {
	width   int // values per op
	first   []float64
	sum     [sha256.Size]byte
	vectors int
	strays  int // vectors that differ from the first
}

func digestFloats(v []float64) [sha256.Size]byte {
	h := sha256.New()
	var b [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

func (o *outputs) record(v []float64) {
	sum := digestFloats(v)
	if o.vectors == 0 {
		o.first = append([]float64(nil), v...)
		o.sum = sum
	} else if sum != o.sum {
		o.strays++
	}
	o.vectors++
}

// failedOps counts, over every recorded vector, the ops whose values
// differ from want.
func (o *outputs) failedOps(want []float64) int {
	if o.vectors == 0 {
		return 0
	}
	ops := len(o.first) / o.width
	if len(want) != len(o.first) {
		return ops * o.vectors
	}
	wrong := 0
	for op := 0; op < ops; op++ {
		for k := op * o.width; k < (op+1)*o.width; k++ {
			if o.first[k] != want[k] {
				wrong++
				break
			}
		}
	}
	return wrong*(o.vectors-o.strays) + ops*o.strays
}

// flattenScores lays a campaign's raw scores out model by model in
// problem order, six values per op.
func flattenScores(models []llm.Model, raw map[string][]score.ProblemScore) []float64 {
	var out []float64
	for _, m := range models {
		for _, s := range raw[m.Name] {
			out = append(out, s.BLEU, s.EditDist, s.ExactMatch, s.KVExact, s.KVWildcard, s.UnitTest)
		}
	}
	return out
}

// newEngineAndDispatcher builds the fresh engine and dispatcher of one
// campaign or serving rep over st, the way cloudeval.NewPersistent
// does; with a tracer, the same two with the timing wrappers in every
// seam.
func newEngineAndDispatcher(models []llm.Model, st *store.Store, tr *tracer) (*engine.Engine, *inference.Dispatcher) {
	if tr == nil {
		return engine.New(engine.WithStore(st)),
			inference.NewDispatcher(inference.NewSim(models), inference.WithGenStore(st))
	}
	ts := &timedStore{st, tr}
	eng := engine.New(engine.WithStore(ts), engine.WithExecutor(&timedExecutor{engine.PoolExecutor{}, tr}))
	// A wrapped sim is no longer recognised as one, so its unbounded
	// concurrency has to be restated.
	disp := inference.NewDispatcher(&timedProvider{inference.NewSim(models), tr},
		inference.WithGenStore(ts), inference.WithConcurrency(0))
	return eng, disp
}

// storeCounters reads st's counters; call before Close.
func storeCounters(st *store.Store, c *counters) {
	hot := st.CacheStats()
	c.appended, c.flushes = st.Appended(), st.Flushes()
	c.hotHits, c.hotMisses = hot.Hits, hot.Misses
}

// removeStore deletes every file of the store rooted at path and
// returns their total size.
func removeStore(path string) int64 {
	files, _ := filepath.Glob(path + "*")
	var size int64
	for _, f := range files {
		if fi, err := os.Stat(f); err == nil {
			size += fi.Size()
		}
		os.Remove(f)
	}
	return size
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// table4 is the full Table 4 campaign, cold or against a warm store.
type table4 struct {
	base
	warm bool

	warmPath string
	coldSeq  int
	refs     []scoringRef
	out      outputs
	tables   []string
}

func (w *table4) opsPerUnit() int { return len(w.c.pairs) }
func (w *table4) spansPerOp() int { return 18 }

func (w *table4) setup(traced bool) error {
	w.out.width = 6
	if w.warm {
		w.warmPath = filepath.Join(w.dir, "warm.store")
		if res := w.campaign(w.warmPath, nil, 0); res.err != nil {
			return fmt.Errorf("warming the store: %w", res.err)
		}
	}
	if traced {
		w.refs = newScoringRefs(w.c.problems)
		w.info = w.pairInfos(w.c.answers())
	}
	return nil
}

type campaignResult struct {
	rows []score.ModelAggregate
	raw  map[string][]score.ProblemScore
	cnt  counters
	err  error
}

// campaign is what a cloudeval.NewPersistent user pays for one
// Table 4: open the store, run the matrix, close the store.
func (w *table4) campaign(path string, tr *tracer, opBase int32) (res campaignResult) {
	t0 := time.Now()
	st, err := store.Open(path)
	if err != nil {
		res.err = err
		return res
	}
	if w.warm {
		res.cnt.openWarmMs = ms(time.Since(t0))
	}
	eng, disp := newEngineAndDispatcher(w.c.models, st, tr)
	if tr == nil {
		res.rows, res.raw = score.BenchmarkVia(eng, disp, w.c.models, w.c.problems)
	} else {
		res.rows, res.raw = tracedCampaign(tr, opBase, eng, disp, w.c, w.refs)
	}
	res.cnt.eng, res.cnt.gen = eng.Stats(), disp.Stats()
	storeCounters(st, &res.cnt)
	t1 := time.Now()
	err = st.Close()
	res.cnt.closeMs = ms(time.Since(t1))
	res.err = errors.Join(disp.Err(), err)
	return res
}

func (w *table4) rep(m *meter, tr *tracer, campaigns int) error {
	paths := make([]string, campaigns)
	for k := range paths {
		paths[k] = w.warmPath
		if !w.warm {
			w.coldSeq++
			paths[k] = filepath.Join(w.dir, fmt.Sprintf("cold-%d.store", w.coldSeq))
		}
	}
	results := make([]campaignResult, campaigns)
	ops := len(w.c.pairs)
	m.start()
	for k, path := range paths {
		results[k] = w.campaign(path, tr, int32(k*ops))
	}
	m.stop(campaigns * ops)

	for k, res := range results {
		if !w.warm {
			res.cnt.bytesOnDisk = removeStore(paths[k])
		}
		w.last = res.cnt
		if res.err != nil {
			w.fail(ops, "campaign latched an error: %v", res.err)
			continue
		}
		e, g := res.cnt.eng, res.cnt.gen
		switch {
		case w.warm && (e.Executed != 0 || g.Generated != 0):
			w.fail(ops, "warm store: %d executed, %d generated, want 0 and 0", e.Executed, g.Generated)
		case !w.warm && (e.Executed+e.CacheHits != int64(ops) || e.StoreHits != 0 || g.Generated != int64(ops)):
			w.fail(ops, "cold: executed %d + memo hits %d != %d ops, or store hits %d != 0, or generated %d != ops",
				e.Executed, e.CacheHits, ops, e.StoreHits, g.Generated)
		}
		w.out.record(flattenScores(w.c.models, res.raw))
		w.tables = append(w.tables, score.FormatTable4(res.rows))
	}
	return nil
}

func (w *table4) verify() int {
	rows, raw := score.BenchmarkSerial(w.c.models, w.c.problems)
	want := score.FormatTable4(rows)
	for i, got := range w.tables {
		if got != want {
			w.fail(len(w.c.pairs), "campaign %d: Table 4 differs from the serial reference", i)
		}
	}
	return w.failed + w.out.failedOps(flattenScores(w.c.models, raw))
}

// stream pushes the distinct executions of Table 4 through an engine
// with no cache: unittest.Run and everything under it, and nothing
// else.
type stream struct {
	base

	execs []execution
	got   []float64 // one pass/fail per op of a rep, reused
	out   outputs
}

func (w *stream) opsPerUnit() int { return len(w.execs) }
func (w *stream) spansPerOp() int { return 2 }

func (w *stream) setup(traced bool) error {
	w.out.width = 1
	w.execs = w.c.distinctExecutions(w.c.answers(), w.seed)
	w.got = make([]float64, w.units*len(w.execs))
	if traced {
		w.info = make([]opInfo, len(w.execs))
		for i, ex := range w.execs {
			w.info[i] = newOpInfo("", ex.problem.ID, [sha256.Size]byte{}, ex.problem.UnitTest, ex.answer)
		}
	}
	return nil
}

func (w *stream) rep(m *meter, tr *tracer, passes int) error {
	n := len(w.execs)
	run := func(eng *engine.Engine, op int) {
		ex := w.execs[op%n]
		w.got[op] = eng.UnitTest(ex.problem, ex.answer).Score()
	}
	eng := engine.New(engine.WithoutCache())
	if tr != nil {
		eng = engine.New(engine.WithoutCache(), engine.WithExecutor(&timedExecutor{engine.PoolExecutor{}, tr}))
		untraced := run
		run = func(eng *engine.Engine, op int) {
			s := tr.begin(lEngine, int32(op), -1)
			untraced(eng, op)
			tr.end(s)
		}
	}
	m.start()
	for pass := 0; pass < passes; pass++ {
		eng.ForEach(n, func(i int) { run(eng, pass*n+i) })
	}
	m.stop(passes * n)

	w.last = counters{eng: eng.Stats()}
	if got := w.last.eng.Executed; got != int64(passes*n) {
		w.fail(passes*n, "engine executed %d of %d", got, passes*n)
	}
	for pass := 0; pass < passes; pass++ {
		w.out.record(w.got[pass*n : (pass+1)*n])
	}
	return nil
}

func (w *stream) verify() int {
	want := make([]float64, len(w.execs))
	engine.New().ForEach(len(w.execs), func(i int) {
		want[i] = unittest.Run(w.execs[i].problem, w.execs[i].answer).Score()
	})
	return w.failed + w.out.failedOps(want)
}

// distinctAnswers is the answers of execs, each once, in a fixed order.
func distinctAnswers(execs []execution) []string {
	seen := map[string]struct{}{}
	var out []string
	for _, ex := range execs {
		if _, dup := seen[ex.answer]; !dup {
			seen[ex.answer] = struct{}{}
			out = append(out, ex.answer)
		}
	}
	sort.Strings(out)
	return out
}
