package main

import (
	"context"
	"crypto/sha256"
	"path/filepath"
	"reflect"
	"testing"

	"cloudeval/internal/engine"
	"cloudeval/internal/inference"
	"cloudeval/internal/llm"
	"cloudeval/internal/store"
)

var (
	_ inference.Provider = (*timedProvider)(nil)
	_ engine.Executor    = (*timedExecutor)(nil)
	_ engine.CacheStore  = (*timedStore)(nil)
	_ inference.GenStore = (*timedStore)(nil)
	_ persistentStore    = (*store.Store)(nil)
)

func layersOf(tr *tracer) map[layer]int {
	n := map[layer]int{}
	for _, s := range tr.recorded() {
		if s.end < s.start {
			panic("span ends before it starts")
		}
		n[s.layer]++
	}
	return n
}

func TestWrappersChangeNoResult(t *testing.T) {
	c := newCorpus(1)
	tr := newTracer(1 << 10)
	ctx := context.Background()

	sim := inference.NewSim(c.models)
	prov := &timedProvider{sim, tr}
	exec := &timedExecutor{engine.PoolExecutor{}, tr}
	for _, pr := range c.pairs[:40] {
		req := inference.Request{Model: c.models[pr.model].Name, Problem: c.problems[pr.problem]}
		want, wantErr := sim.Generate(ctx, req)
		got, gotErr := prov.Generate(ctx, req)
		if !reflect.DeepEqual(got, want) || gotErr != wantErr {
			t.Fatalf("timedProvider changed the response for %s / %s", req.Model, req.Problem.ID)
		}
		answer := llm.Postprocess(got.Text)
		if got, want := exec.RunUnitTest(req.Problem, answer), (engine.PoolExecutor{}).RunUnitTest(req.Problem, answer); !reflect.DeepEqual(got, want) {
			t.Fatalf("timedExecutor changed the result for %s", req.Problem.ID)
		}
	}
	if prov.Name() != sim.Name() || exec.Name() != (engine.PoolExecutor{}).Name() {
		t.Error("wrappers must pass Name through")
	}

	st, err := store.Open(filepath.Join(t.TempDir(), "eval.store"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ts := &timedStore{st, tr}
	p := c.problems[0]
	test, answer := sha256.Sum256([]byte(p.UnitTest)), sha256.Sum256([]byte("kind: Pod"))
	if _, ok := ts.Get(test, answer); ok {
		t.Fatal("empty store answered a Get")
	}
	res := engine.PoolExecutor{}.RunUnitTest(p, "kind: Pod")
	ts.Put(test, answer, res)
	direct, ok1 := st.Get(test, answer)
	wrapped, ok2 := ts.Get(test, answer)
	if !ok1 || !ok2 || !reflect.DeepEqual(direct, wrapped) {
		t.Fatalf("timedStore.Get differs from the store's: %v %v", ok1, ok2)
	}
	key := inference.Request{Model: c.models[0].Name, Problem: p}.Key()
	resp := inference.Response{Text: "apiVersion: v1", Usage: inference.Usage{PromptTokens: 3, CompletionTokens: 2}}
	ts.PutGen(key, resp)
	directGen, ok1 := st.GetGen(key)
	wrappedGen, ok2 := ts.GetGen(key)
	if !ok1 || !ok2 || !reflect.DeepEqual(directGen, wrappedGen) {
		t.Fatalf("timedStore.GetGen differs from the store's: %v %v", ok1, ok2)
	}

	want := map[layer]int{lGenerate: 40, lRun: 40, lStoreGet: 2, lStorePut: 1, lStoreGetGen: 1, lStorePutGen: 1}
	if got := layersOf(tr); !reflect.DeepEqual(got, want) {
		t.Errorf("spans per layer = %v, want %v", got, want)
	}
	spans := tr.recorded()
	if last := spans[len(spans)-1]; last.layer != lStoreGetGen || !last.ok || last.key != genContentKey(key) {
		t.Errorf("the GetGen span should carry its key and outcome: %+v", last)
	}
}

// A traced campaign must produce the very table an untraced one does,
// with every wrapper span attributed to an op.
func TestTracedCampaignMatchesBenchmarkVia(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full campaigns")
	}
	dir := t.TempDir()
	w := &table4{base: base{c: newCorpus(3), dir: dir, seed: 3, units: 1}}
	if err := w.setup(true); err != nil {
		t.Fatal(err)
	}
	tr := newTracer(w.opsPerUnit()*w.spansPerOp() + 1024)
	var m meter
	if err := w.rep(&m, nil, 1); err != nil {
		t.Fatal(err)
	}
	if err := w.rep(&m, tr, 1); err != nil {
		t.Fatal(err)
	}
	if w.failed != 0 || w.out.strays != 0 || w.tables[0] != w.tables[1] {
		t.Fatalf("traced campaign differs from the untraced one: %d failed, %d strays", w.failed, w.out.strays)
	}
	tr.resolve(w.infos())
	var lg ledger
	lg.fold(tr.recorded())
	if tr.dropped.Load() != 0 || lg.unresolved != 0 {
		t.Errorf("%d spans dropped, %d wrapper spans without a parent", tr.dropped.Load(), lg.unresolved)
	}
	ops := int64(len(w.c.pairs))
	if lg.layers[lOp].calls != ops || lg.layers[lGenerate].calls != ops || lg.layers[lBLEU].calls != ops {
		t.Errorf("op, generate and bleu spans = %d %d %d, want %d each",
			lg.layers[lOp].calls, lg.layers[lGenerate].calls, lg.layers[lBLEU].calls, ops)
	}
	if got, want := lg.engineMiss.calls, w.last.eng.Executed; got != want {
		t.Errorf("%d engine spans with an execution below, engine says it executed %d", got, want)
	}
}
