package main

import (
	"context"
	"sort"
	"time"

	"cloudeval/internal/dataset"
	"cloudeval/internal/engine"
	"cloudeval/internal/inference"
	"cloudeval/internal/llm"
	"cloudeval/internal/prompt"
	"cloudeval/internal/score"
	"cloudeval/internal/textmetrics"
	"cloudeval/internal/yamlmatch"
	"cloudeval/internal/yamlx"
)

// scoringRef is what score keeps per reference answer (its refContext
// is not exported): the label-stripped text and its BLEU statistics.
// A traced campaign calls the five scoring functions one by one and
// needs the same two.
type scoringRef struct {
	clean string
	bleu  *textmetrics.BLEURef
}

func newScoringRefs(problems []dataset.Problem) []scoringRef {
	refs := make([]scoringRef, len(problems))
	for i, p := range problems {
		clean := yamlmatch.StripLabels(p.ReferenceYAML)
		refs[i] = scoringRef{clean: clean, bleu: textmetrics.NewBLEURef(clean)}
	}
	return refs
}

// tracedCampaign is score.BenchmarkVia taken apart: the same matrix on
// the same engine.Pipeline schedule, but the harness's own closures
// call the dispatcher, the post-processor, the five scoring functions
// and the engine one at a time, each inside a span. Its rows and raw
// scores are verified against the serial reference like any other
// campaign's.
func tracedCampaign(tr *tracer, opBase int32, eng *engine.Engine, disp *inference.Dispatcher, c *corpus, refs []scoringRef) ([]score.ModelAggregate, map[string][]score.ProblemScore) {
	engine.WarmDigests(c.problems)
	inference.WarmPrompts(c.problems, 0)
	scores := make([]score.ProblemScore, len(c.pairs))
	opSpans := make([]int32, len(c.pairs))
	ctx := context.Background()
	timed := func(l layer, op, parent int32, f func() float64) float64 {
		s := tr.begin(l, op, parent)
		v := f()
		tr.end(s)
		return v
	}
	engine.Pipeline(eng, len(c.pairs), disp.Concurrency(), 0,
		func(i int) string {
			pr, op := c.pairs[i], opBase+int32(i)
			root := tr.begin(lOp, op, -1)
			opSpans[i] = root
			s := tr.begin(lDispatch, op, root)
			resp, err := disp.Generate(ctx, inference.Request{Model: c.models[pr.model].Name, Problem: c.problems[pr.problem]})
			tr.end(s)
			if err != nil {
				return "" // latched in disp.Err, like Dispatcher.Answer
			}
			s = tr.begin(lPostprocess, op, root)
			answer := llm.Postprocess(resp.Text)
			tr.end(s)
			return answer
		},
		func(i int, answer string) {
			pr, op, root := c.pairs[i], opBase+int32(i), opSpans[i]
			p, ref := c.problems[pr.problem], refs[pr.problem]
			sc := tr.begin(lScore, op, root)
			s := score.ProblemScore{ProblemID: p.ID, Variant: p.Variant, Answer: answer, Model: c.models[pr.model].Name}
			s.BLEU = timed(lBLEU, op, sc, func() float64 { return ref.bleu.Score(answer) })
			s.EditDist = timed(lEditDist, op, sc, func() float64 { return textmetrics.EditDistanceScore(answer, ref.clean) })
			s.ExactMatch = timed(lExact, op, sc, func() float64 { return textmetrics.ExactMatch(answer, ref.clean) })
			s.KVExact = timed(lKVExact, op, sc, func() float64 { return yamlmatch.KVExactMatch(answer, ref.clean) })
			s.KVWildcard = timed(lKVWildcard, op, sc, func() float64 { return yamlmatch.KVWildcardMatch(answer, p.ReferenceYAML) })
			s.UnitTest = timed(lEngine, op, sc, func() float64 { return eng.UnitTest(p, answer).Score() })
			scores[i] = s
			tr.end(sc)
			tr.end(root)
		})

	rows := make([]score.ModelAggregate, 0, len(c.models))
	raw := make(map[string][]score.ProblemScore, len(c.models))
	for lo := 0; lo < len(c.pairs); {
		hi := lo
		for hi < len(c.pairs) && c.pairs[hi].model == c.pairs[lo].model {
			hi++
		}
		m := c.models[c.pairs[lo].model]
		raw[m.Name] = scores[lo:hi:hi]
		rows = append(rows, score.Aggregate(m, raw[m.Name]))
		lo = hi
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].UnitTest > rows[j].UnitTest })
	return rows, raw
}

// usPerCall times f over n calls on the calling goroutine, ≥ 0.2 s of
// them, and returns µs per call.
func usPerCall(n int, f func(i int)) float64 {
	calls := 0
	t0 := time.Now()
	for time.Since(t0) < 200*time.Millisecond {
		for i := 0; i < n; i++ {
			f(i)
		}
		calls += n
	}
	return float64(time.Since(t0)) / float64(calls) / 1e3
}

// promptBuildMicro renders every problem's prompt uncached: what the
// dispatcher's prompt cache saves on each first touch.
func promptBuildMicro(problems []dataset.Problem) float64 {
	return usPerCall(len(problems), func(i int) { prompt.Build(problems[i], 0) })
}

// parseAllMicro parses every answer with the document cache bypassed:
// the parse every distinct answer pays once under unittest.Run.
func parseAllMicro(answers []string) float64 {
	docs := make([][]byte, len(answers))
	for i, a := range answers {
		docs[i] = []byte(a)
	}
	return usPerCall(len(docs), func(i int) { yamlx.ParseAll(docs[i]) })
}

func (w *table4) micro() (map[string]float64, error) {
	if w.warm {
		return nil, nil // neither prompts nor parses happen on a warm store
	}
	return map[string]float64{"prompt.build_us_per_op": promptBuildMicro(w.c.problems)}, nil
}

func (w *stream) micro() (map[string]float64, error) {
	return map[string]float64{"yamlx.parse_all_us_per_op": parseAllMicro(distinctAnswers(w.execs))}, nil
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// layerMetrics turns the ledger of the traced reps and the counters of
// the last rep into the per-layer metrics. A metric that does not apply
// to the workload reads 0.
func layerMetrics(lg *ledger, cnt counters) map[string]float64 {
	us := func(l layer) float64 { return lg.layers[l].usPerCall() }
	m := map[string]float64{
		"inference.dispatch_miss_us_per_op": lg.dispatchMiss.usPerCall(),
		"inference.dispatch_hit_us_per_op":  lg.dispatchHit.usPerCall(),
		"inference.generated":               float64(cnt.gen.Generated),
		"inference.cache_hits":              float64(cnt.gen.CacheHits),
		"inference.store_hits":              float64(cnt.gen.StoreHits),
		"llm.generate_us_per_op":            us(lGenerate),
		"llm.postprocess_us_per_op":         us(lPostprocess),
		"textmetrics.bleu_us_per_op":        us(lBLEU),
		"textmetrics.editdist_us_per_op":    us(lEditDist),
		"textmetrics.exact_us_per_op":       us(lExact),
		"yamlmatch.kv_exact_us_per_op":      us(lKVExact),
		"yamlmatch.kv_wildcard_us_per_op":   us(lKVWildcard),
		"score.score_answer_us_per_op":      us(lScore),
		"engine.unittest_miss_us_per_op":    lg.engineMiss.usPerCall(),
		"engine.unittest_hit_us_per_op":     lg.engineHit.usPerCall(),
		"engine.executed":                   float64(cnt.eng.Executed),
		"engine.cache_hits":                 float64(cnt.eng.CacheHits),
		"engine.store_hits":                 float64(cnt.eng.StoreHits),
		"engine.hit_ratio":                  ratio(cnt.eng.CacheHits+cnt.eng.StoreHits, cnt.eng.CacheHits+cnt.eng.StoreHits+cnt.eng.Executed),
		"unittest.run_us_per_op":            us(lRun),
		"unittest.pass_ratio":               ratio(lg.runPassed, lg.layers[lRun].calls),
		"store.put_us_per_op":               us(lStorePut),
		"store.putgen_us_per_op":            us(lStorePutGen),
		"store.get_us_per_op":               us(lStoreGet),
		"store.getgen_us_per_op":            us(lStoreGetGen),
		"store.frames_per_flush":            ratio(cnt.appended, cnt.flushes),
		"store.close_ms":                    cnt.closeMs,
		"store.open_warm_ms":                cnt.openWarmMs,
		"store.bytes_on_disk":               float64(cnt.bytesOnDisk),
		"store.hot_cache_hit_ratio":         ratio(cnt.hotHits, cnt.hotHits+cnt.hotMisses),
		"campaign.handoff_us_per_op":        us(lOp),
		"server.handler_self_us_per_op":     us(lHandler),
		"client.eval_self_us_per_op":        us(lClient),
		"trace.attributed_share":            ratio(lg.leafNs, lg.wallNs*int64(procs())),
		"trace.unresolved_spans":            float64(lg.unresolved),
	}
	for i, f := range families {
		m["unittest.run_us_per_op."+f] = lg.runByFamily[i].usPerCall()
	}
	return m
}
