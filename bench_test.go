// Benchmarks regenerating every table and figure of the paper's
// evaluation (see DESIGN.md §3 for the experiment index), plus the
// ablation studies of design choices. Each benchmark reports its
// headline quantity through b.ReportMetric so `go test -bench` output
// doubles as an experiment log.
package cloudeval_test

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cloudeval/internal/analysis"
	"cloudeval/internal/augment"
	"cloudeval/internal/boost"
	"cloudeval/internal/cost"
	"cloudeval/internal/dataset"
	"cloudeval/internal/engine"
	"cloudeval/internal/evalcluster"
	"cloudeval/internal/inference"
	"cloudeval/internal/lagfib"
	"cloudeval/internal/llm"
	"cloudeval/internal/score"
	"cloudeval/internal/store"
	"cloudeval/internal/unittest"
	"cloudeval/internal/yamlmatch"
)

// Shared fixtures, computed once per benchmark binary run.
var (
	fixtureOnce  sync.Once
	fxOriginals  []dataset.Problem
	fxFullCorpus []dataset.Problem
)

func fixtures() ([]dataset.Problem, []dataset.Problem) {
	fixtureOnce.Do(func() {
		fxOriginals = dataset.Generate()
		fxFullCorpus = augment.ExpandCorpus(fxOriginals)
	})
	return fxOriginals, fxFullCorpus
}

// benchEv, over benchEng and benchGen, is the evaluator the benchmarks
// share where they measure a warm path: after the first campaign every
// generation, and on benchEng every execution, is a cache hit.
var (
	benchEng = engine.New()
	benchGen = inference.NewDispatcher(inference.NewSim(llm.Models))
	benchEv  = score.NewEvaluator(benchEng, benchGen)
)

var (
	zeroShotOnce sync.Once
	zsRows       []score.ModelAggregate
	zsRaw        map[string][]score.ProblemScore
)

func zeroShot() ([]score.ModelAggregate, map[string][]score.ProblemScore) {
	zeroShotOnce.Do(func() {
		_, full := fixtures()
		zsRows, zsRaw = benchEv.Benchmark(llm.Models, full)
	})
	return zsRows, zsRaw
}

// BenchmarkTable1Augmentation regenerates the practical-augmentation
// statistics: simplification must reduce both words and tokens.
func BenchmarkTable1Augmentation(b *testing.B) {
	originals, _ := fixtures()
	var reduction float64
	for i := 0; i < b.N; i++ {
		full := augment.ExpandCorpus(originals)
		stats := augment.Table1(full)
		o, s := stats[dataset.Original], stats[dataset.Simplified]
		reduction = (o.AvgWords - s.AvgWords) / o.AvgWords * 100
	}
	b.ReportMetric(reduction, "word-reduction-%")
}

// BenchmarkTable2DatasetStats regenerates the per-category dataset
// statistics.
func BenchmarkTable2DatasetStats(b *testing.B) {
	originals, _ := fixtures()
	var avgLines float64
	for i := 0; i < b.N; i++ {
		avgLines = dataset.ComputeStats(originals).AvgSolutionLines
	}
	b.ReportMetric(avgLines, "avg-solution-lines")
}

// BenchmarkTable3Cost regenerates the running-cost breakdown.
func BenchmarkTable3Cost(b *testing.B) {
	_, full := fixtures()
	jobs := evalcluster.JobsFromProblems(benchEng, full)
	var minTotal float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		minTotal = cost.ComputeTable3(full, jobs).MinTotal
	}
	b.ReportMetric(minTotal, "min-total-$")
}

// BenchmarkTable4ZeroShot runs the full 12-model x 1011-problem
// zero-shot benchmark with all six metrics on a fresh engine and
// dispatcher in every iteration, so no repeat reuses an earlier one's
// generations or executions. Only the first repeat in a process also
// finds the process-wide text caches and the problems' compiled state
// cold; under CI's -count 5 that repeat is the one the allocation gate
// reads, while the reported ns/op is the median of all five.
func BenchmarkTable4ZeroShot(b *testing.B) {
	_, full := fixtures()
	var gpt4 float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen := inference.NewDispatcher(inference.NewSim(llm.Models))
		rows, _ := score.NewEvaluator(engine.New(), gen).Benchmark(llm.Models, full)
		gpt4 = rows[0].UnitTest
	}
	b.ReportMetric(gpt4, "gpt4-unit-test")
}

// BenchmarkZeroShotSerial is the pre-engine baseline: the full Table 4
// campaign as one serial loop, no scheduler, no cache — compare against
// BenchmarkZeroShotEngine.
func BenchmarkZeroShotSerial(b *testing.B) {
	_, full := fixtures()
	var gpt4 float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, _ := score.BenchmarkSerial(llm.Models, full)
		gpt4 = rows[0].UnitTest
	}
	b.ReportMetric(gpt4, "gpt4-unit-test")
}

// BenchmarkZeroShotEngine runs the identical campaign through a fresh
// engine each iteration: GOMAXPROCS-parallel scheduling, each worker
// claiming the next index, plus cold-start memoization of duplicate answers. Output is
// byte-identical to the serial baseline (see engine_test.go); on a
// 4-core box the wall-clock target is >=3x over BenchmarkZeroShotSerial,
// and even single-core the answer cache keeps it ahead.
func BenchmarkZeroShotEngine(b *testing.B) {
	_, full := fixtures()
	zeroShot() // warms benchGen, whose generations every iteration reuses
	var gpt4 float64
	var stats engine.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := engine.New()
		rows, _ := score.NewEvaluator(eng, benchGen).Benchmark(llm.Models, full)
		gpt4 = rows[0].UnitTest
		stats = eng.Stats()
	}
	b.ReportMetric(gpt4, "gpt4-unit-test")
	b.ReportMetric(float64(stats.CacheHits), "cache-hits")
	b.ReportMetric(float64(stats.Executed), "unit-tests-executed")
}

// BenchmarkZeroShotWarmStore runs the campaign through a fresh engine
// backed by a warm persistent store — the cross-process replay path.
// Every iteration reopens the store like a new process would; zero
// unit tests execute, so this measures the floor a resumed campaign or
// a CI run with a restored store cache pays.
func BenchmarkZeroShotWarmStore(b *testing.B) {
	_, full := fixtures()
	path := filepath.Join(b.TempDir(), "eval.store")
	st, err := store.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	score.NewEvaluator(engine.New(engine.WithStore(st)), benchGen).Benchmark(llm.Models, full)
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	var gpt4 float64
	var stats engine.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := store.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		eng := engine.New(engine.WithStore(st))
		rows, _ := score.NewEvaluator(eng, benchGen).Benchmark(llm.Models, full)
		gpt4 = rows[0].UnitTest
		stats = eng.Stats()
		st.Close()
	}
	b.ReportMetric(gpt4, "gpt4-unit-test")
	b.ReportMetric(float64(stats.Executed), "unit-tests-executed")
	b.ReportMetric(float64(stats.StoreHits), "store-hits")
}

// BenchmarkTable5Augmented measures unit-test passes across original/
// simplified/translated subsets for the top and a bottom model.
func BenchmarkTable5Augmented(b *testing.B) {
	_, full := fixtures()
	gpt4, _ := llm.ByName("gpt-4")
	var delta float64
	for i := 0; i < b.N; i++ {
		counts := benchEv.Variants(gpt4, full)
		delta = float64(counts[dataset.Simplified] - counts[dataset.Original])
	}
	b.ReportMetric(delta, "gpt4-simplified-delta")
}

// BenchmarkTable6FewShot sweeps 0..3-shot prompting for the paper's
// three few-shot models.
func BenchmarkTable6FewShot(b *testing.B) {
	originals, _ := fixtures()
	var gain float64
	for i := 0; i < b.N; i++ {
		for _, name := range []string{"gpt-3.5", "llama-2-70b-chat", "llama-2-7b-chat"} {
			m, _ := llm.ByName(name)
			counts := benchEv.FewShot(m, originals, 3)
			if name == "gpt-3.5" {
				gain = float64(counts[3] - counts[0])
			}
		}
	}
	b.ReportMetric(gain, "gpt3.5-3shot-gain")
}

// BenchmarkFigure5ClusterScaling sweeps the evaluation cluster from 1
// to 64 workers with and without the shared image cache.
func BenchmarkFigure5ClusterScaling(b *testing.B) {
	_, full := fixtures()
	jobs := evalcluster.JobsFromProblems(benchEng, full)
	var speedup, cacheGain float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t1 := evalcluster.Simulate(jobs, evalcluster.DefaultSimConfig(1, false))
		t64 := evalcluster.Simulate(jobs, evalcluster.DefaultSimConfig(64, false))
		t64c := evalcluster.Simulate(jobs, evalcluster.DefaultSimConfig(64, true))
		speedup = float64(t1.Total) / float64(t64.Total)
		cacheGain = float64(t64.Total) / float64(t64c.Total)
	}
	b.ReportMetric(speedup, "parallel-speedup-64w")
	b.ReportMetric(cacheGain, "cache-gain-64w")
}

// BenchmarkFigure6Breakdown re-slices the zero-shot run into the four
// analysis perspectives.
func BenchmarkFigure6Breakdown(b *testing.B) {
	_, full := fixtures()
	_, raw := zeroShot()
	byID := analysis.ProblemIndex(full)
	var envoyGap float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		breakdown := analysis.Breakdown(raw, byID)
		g := breakdown["gpt-4"]["application_category"]
		envoyGap = g["kubernetes"] - g["envoy"]
	}
	b.ReportMetric(envoyGap, "gpt4-k8s-minus-envoy")
}

// BenchmarkFigure7FailureModes categorizes every answer of the paper's
// three spotlighted models into the six failure modes.
func BenchmarkFigure7FailureModes(b *testing.B) {
	originals, _ := fixtures()
	byID := analysis.ProblemIndex(originals)
	var gpt4Correct int
	for i := 0; i < b.N; i++ {
		for _, name := range []string{"gpt-4", "llama-2-70b-chat", "llama-2-7b-chat"} {
			m, _ := llm.ByName(name)
			scores := benchEv.Model(m, originals, llm.GenOptions{})
			counts := analysis.FailureCounts(scores, byID)
			if name == "gpt-4" {
				gpt4Correct = counts[5]
			}
		}
	}
	b.ReportMetric(float64(gpt4Correct), "gpt4-cat6-count")
}

// BenchmarkFigure8PassAtK runs the multi-sample generation study
// (paper: GPT-4 capped at 6 samples; others at 16).
func BenchmarkFigure8PassAtK(b *testing.B) {
	originals, _ := fixtures()
	var gain float64
	for i := 0; i < b.N; i++ {
		m, _ := llm.ByName("gpt-3.5")
		series := benchEv.PassAtK(m, originals, 16, 0.75)
		gain = float64(series[15]) / float64(series[0])
	}
	b.ReportMetric(gain, "gpt3.5-pass@16-over-pass@1")
}

// BenchmarkFigure9Predictor trains the unit-test classifier leave-one-
// model-out and computes SHAP importances.
func BenchmarkFigure9Predictor(b *testing.B) {
	_, raw := zeroShot()
	var kvwImportance float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := boost.LeaveOneModelOut(benchEng, raw, boost.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
		imp, err := boost.GlobalImportance(benchEng, raw, boost.DefaultConfig(), 300)
		if err != nil {
			b.Fatal(err)
		}
		kvwImportance = imp["kv_wildcard"]
	}
	b.ReportMetric(kvwImportance, "kv-wildcard-shap")
}

// BenchmarkGenerateBatched measures the inference dispatcher under a
// campaign's fan-out: a 4-model x 64-problem request matrix sent
// through Dispatcher.Generate from engine.ForEach, with the generation
// cache disabled, so every request pays a live sim call under the
// concurrency limit — the dispatch overhead a real-API campaign rides
// on. The engine is built once, outside the timed loop. Runs under
// -benchmem in CI; benchguard gates its allocs/op against
// ci/bench-baseline.json.
func BenchmarkGenerateBatched(b *testing.B) {
	originals, _ := fixtures()
	modelNames := []string{"gpt-4", "gpt-3.5", "llama-2-70b-chat", "codellama-7b-instruct"}
	var reqs []inference.Request
	for _, name := range modelNames {
		for _, p := range originals[:64] {
			reqs = append(reqs, inference.Request{Model: name, Problem: p})
		}
	}
	eng := engine.New()
	var toks float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := inference.NewDispatcher(inference.NewSim(llm.Models), inference.WithoutGenCache())
		resps := make([]inference.Response, len(reqs))
		eng.ForEach(len(reqs), func(j int) {
			resps[j], _ = d.Generate(context.Background(), reqs[j])
		})
		if err := d.Err(); err != nil {
			b.Fatal(err)
		}
		total := 0
		for _, r := range resps {
			total += r.Usage.Total()
		}
		toks = float64(total)
	}
	b.ReportMetric(toks, "tokens-per-batch")
	b.ReportMetric(float64(len(reqs)), "requests-per-batch")
}

// BenchmarkScoreAnswer measures one score.Evaluator.Score call on a
// warm engine, cycling through the Table 4 pairs in campaign order:
// every reference is compiled, every answer parsed and every unit test
// memoized before the timer starts, so an op is the five inline metrics
// streaming one answer over its compiled reference plus the engine's
// memo lookup — what a warm-store campaign spends most of its time on.
// Runs under -benchmem in CI; benchguard's allocs-cap ScoreAnswer row
// holds its allocs/op under a hard cap.
func BenchmarkScoreAnswer(b *testing.B) {
	_, full := fixtures()
	_, raw := zeroShot() // through benchEng, which this leaves warm
	byID := make(map[string]dataset.Problem, len(full))
	for _, p := range full {
		byID[p.ID] = p
	}
	type pair struct {
		problem dataset.Problem
		answer  string
	}
	var pairs []pair
	for _, m := range llm.Models {
		for _, s := range raw[m.Name] {
			pairs = append(pairs, pair{byID[s.ProblemID], s.Answer})
		}
	}
	var unitTests float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr := pairs[i%len(pairs)]
		unitTests += benchEv.Score(pr.problem, pr.answer).UnitTest
	}
	b.ReportMetric(unitTests/float64(b.N), "unit-test-pass-rate")
	b.ReportMetric(float64(len(pairs)), "table4-pairs")
}

// BenchmarkSimGenerate measures one llm.Model.Generate call, cycling
// through the Table 4 pairs in campaign order (-benchtime 13195x is one
// sweep): seeding the two streams, the category draw, and a corruptor
// working on a clone of the problem's compiled generation context,
// which the fixture pass before the timer has compiled. No dispatcher,
// metering or post-processing — the generation layer alone. Rides in
// the CI artifact ungated.
func BenchmarkSimGenerate(b *testing.B) {
	_, full := fixtures()
	type pair struct {
		model   llm.Model
		problem dataset.Problem
	}
	var pairs []pair
	bytes := 0
	for _, m := range llm.Models {
		for _, p := range full {
			if m.EnglishOnly && p.Variant == dataset.Translated {
				continue
			}
			pairs = append(pairs, pair{m, p})
			bytes += len(m.Generate(p, llm.GenOptions{}))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr := pairs[i%len(pairs)]
		benchSink += len(pr.model.Generate(pr.problem, llm.GenOptions{}))
	}
	b.ReportMetric(float64(bytes)/float64(len(pairs)), "response-bytes")
	b.ReportMetric(float64(len(pairs)), "table4-pairs")
}

// BenchmarkSeedStream measures what a simulated stream costs before
// its numbers are worth anything: seed a used source, then draw once
// (a generation's latent stream often draws little more) or 700 times
// (past the 607-word register, where the lazy source has filled all of
// it and only the seeding differs). math/rand's own source, which
// expands the whole register in Seed, runs beside it as the reference.
func BenchmarkSeedStream(b *testing.B) {
	sources := []struct {
		name string
		src  rand.Source64
	}{
		{"lagfib", lagfib.New(0)},
		{"mathrand", rand.NewSource(0).(rand.Source64)},
	}
	for _, s := range sources {
		for _, draws := range []int{1, 700} {
			b.Run(fmt.Sprintf("%s/draws=%d", s.name, draws), func(b *testing.B) {
				var sum uint64
				for i := 0; i < b.N; i++ {
					s.src.Seed(int64(i))
					for d := 0; d < draws; d++ {
						sum += s.src.Uint64()
					}
				}
				benchSink += int(sum & 1)
			})
		}
	}
}

// benchSink keeps the compiler from discarding a measured call.
var benchSink int

// BenchmarkCampaignParallel runs a 4-model campaign slice through a
// fresh engine and dispatcher each iteration — the contention profile
// of a cold fleet-concurrency campaign. Run it at -cpu 1,4 to expose
// lock-behavior regressions: the sharded caches and per-shard store
// locks are what let the 4-core run beat the 1-core run by the factor
// benchguard's campaign-scaling row requires.
func BenchmarkCampaignParallel(b *testing.B) {
	originals, _ := fixtures()
	models := llm.Models[:4]
	var gpt4 float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := engine.New()
		gen := inference.NewDispatcher(inference.NewSim(llm.Models))
		rows, _ := score.NewEvaluator(eng, gen).Benchmark(models, originals)
		gpt4 = rows[0].UnitTest
	}
	b.ReportMetric(gpt4, "gpt4-unit-test")
}

// latencyCampaign is the fixture both pipeline-overlap benchmarks
// share: a 4-model x 64-problem matrix generated through a provider
// that injects 20-25ms of key-derived latency per call — the honest
// stand-in for a live HTTP endpoint. The generation cache is off so
// every request pays the latency, and the dispatcher allows 64
// generations in flight, like the HTTP default.
func latencyCampaign() ([]llm.Model, []dataset.Problem, *inference.Delay, *inference.Dispatcher) {
	originals, _ := fixtures()
	prov := inference.NewDelay(inference.NewSim(llm.Models), 20*time.Millisecond, 5*time.Millisecond)
	gen := inference.NewDispatcher(prov, inference.WithConcurrency(64), inference.WithoutGenCache())
	return llm.Models[:4], originals[:64], prov, gen
}

// BenchmarkCampaignPipelined runs the latency campaign through the
// two-stage streaming pipeline: up to 64 generations in flight feed a
// bounded queue ahead of the engine's unit-test workers, so provider
// latency and execution overlap — wall clock approaches
// max(generation, execution) instead of their sum. The twin
// BenchmarkCampaignInterleaved is the pre-pipeline shape; benchguard's
// pipeline-overlap row requires this benchmark to beat it by a fixed
// factor in the same run.
func BenchmarkCampaignPipelined(b *testing.B) {
	models, probs, prov, gen := latencyCampaign()
	n := len(models) * len(probs)
	var peak int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := engine.New()
		ev := score.NewEvaluator(eng, nil)
		scores := make([]score.ProblemScore, n)
		engine.Pipeline(eng, n, gen.Concurrency(), 0,
			func(j int) string {
				return gen.Answer(models[j/len(probs)], probs[j%len(probs)], llm.GenOptions{})
			},
			func(j int, answer string) {
				scores[j] = ev.Score(probs[j%len(probs)], answer)
			})
		peak = prov.MaxInFlight()
	}
	b.ReportMetric(float64(peak), "peak-gen-inflight")
	b.ReportMetric(float64(n), "pairs-per-campaign")
}

// BenchmarkCampaignInterleaved is the pre-pipeline baseline over the
// identical latency campaign: each worker generates, then scores, one
// pair at a time, so every unit test waits out its generation's
// 20-25ms first. Kept runnable so the pipelined/interleaved ratio is
// measured in the same run on the same hardware rather than against a
// recorded number.
func BenchmarkCampaignInterleaved(b *testing.B) {
	models, probs, _, gen := latencyCampaign()
	n := len(models) * len(probs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := engine.New()
		ev := score.NewEvaluator(eng, nil)
		scores := make([]score.ProblemScore, n)
		eng.ForEach(n, func(j int) {
			answer := gen.Answer(models[j/len(probs)], probs[j%len(probs)], llm.GenOptions{})
			scores[j] = ev.Score(probs[j%len(probs)], answer)
		})
	}
	b.ReportMetric(float64(n), "pairs-per-campaign")
}

// BenchmarkStoreAppendParallel hammers the store's append path from
// every core: distinct keys, so each Put encodes a frame and writes it
// under its shard's log lock. A lock shared across shards shows up
// here as ns/op that stops falling with cores. frames-per-flush is
// Appended()/Flushes(), 1.0 while each frame is its own write.
func BenchmarkStoreAppendParallel(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.store")
	s, err := store.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	var seq atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := seq.Add(1)
			tk := sha256.Sum256([]byte(fmt.Sprintf("bench-test-%d", i%977)))
			ak := sha256.Sum256([]byte(fmt.Sprintf("bench-answer-%d", i)))
			s.Put(tk, ak, unittest.Result{Passed: i%2 == 0, VirtualTime: time.Second})
		}
	})
	b.StopTimer()
	if f := s.Flushes(); f > 0 {
		b.ReportMetric(float64(s.Appended())/float64(f), "frames-per-flush")
	}
}

// BenchmarkStoreOpenWarm measures the warm-restart replay path: a
// multi-thousand-record log opened from scratch each iteration — the
// cost a restarted daemon pays before serving its first request.
// The sharded store replays segments in parallel, so this should scale
// with cores where the single-file replay could not.
func BenchmarkStoreOpenWarm(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.store")
	s, err := store.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	const records, gens = 4000, 1000
	for i := 0; i < records; i++ {
		tk := sha256.Sum256([]byte(fmt.Sprintf("warm-test-%d", i)))
		ak := sha256.Sum256([]byte(fmt.Sprintf("warm-answer-%d", i)))
		s.Put(tk, ak, unittest.Result{Passed: i%2 == 0, Output: "unit_test_passed\n", VirtualTime: time.Second})
	}
	for i := 0; i < gens; i++ {
		key := inference.Key(sha256.Sum256([]byte(fmt.Sprintf("warm-gen-%d", i))))
		s.PutGen(key, inference.Response{
			Text:  fmt.Sprintf("apiVersion: v1\nkind: Pod # %d\n", i),
			Usage: inference.Usage{PromptTokens: 120, CompletionTokens: 40},
		})
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := store.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		if w.Len() != records || w.GenLen() != gens {
			b.Fatalf("replayed %d/%d, want %d/%d", w.Len(), w.GenLen(), records, gens)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(records+gens), "records-replayed")
}

// BenchmarkStoreColdGet measures the store's one read path: every Get
// pays pread + CRC + decode. Run with -benchmem; benchguard caps
// allocs/op here so the on-demand read path cannot silently grow
// allocation fat — it is what every request that misses the in-memory
// tiers pays at the store.
func BenchmarkStoreColdGet(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.store")
	s, err := store.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	const records = 2048
	keys := make([][2][32]byte, records)
	for i := 0; i < records; i++ {
		tk := sha256.Sum256([]byte(fmt.Sprintf("cold-test-%d", i)))
		ak := sha256.Sum256([]byte(fmt.Sprintf("cold-answer-%d", i)))
		keys[i] = [2][32]byte{tk, ak}
		s.Put(tk, ak, unittest.Result{Passed: true, Output: "unit_test_passed\n", VirtualTime: time.Second})
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	c, err := store.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%records]
		if _, ok := c.Get(k[0], k[1]); !ok {
			b.Fatalf("cold Get missed key %d", i%records)
		}
	}
}

// BenchmarkDispatcherContention measures the generation cache's warm
// hit path under full parallelism: every request is a cache hit, so
// the only cost is key derivation plus shard lookup — the path a
// re-campaign or multi-turn repair loop hammers hardest. Before
// sharding, every hit serialized on one dispatcher mutex.
func BenchmarkDispatcherContention(b *testing.B) {
	originals, _ := fixtures()
	d := inference.NewDispatcher(inference.NewSim(llm.Models))
	probs := originals[:64]
	ctx := context.Background()
	for _, p := range probs {
		if _, err := d.Generate(ctx, inference.Request{Model: "gpt-4", Problem: p}); err != nil {
			b.Fatal(err)
		}
	}
	var seq atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			p := probs[int(seq.Add(1))%len(probs)]
			if _, err := d.Generate(ctx, inference.Request{Model: "gpt-4", Problem: p}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablation benches (design choices called out in DESIGN.md §4) ---

// BenchmarkAblationPostprocessing quantifies §3.1's extraction policies:
// unit-test pass rate with and without post-processing for a fence-
// wrapping model.
func BenchmarkAblationPostprocessing(b *testing.B) {
	originals, _ := fixtures()
	m, _ := llm.ByName("gpt-4") // wraps answers in markdown fences
	slice := originals[:150]
	var withPP, withoutPP int
	for i := 0; i < b.N; i++ {
		withPP, withoutPP = 0, 0
		for _, p := range slice {
			raw := m.Generate(p, llm.GenOptions{})
			if unittest.Run(p, llm.Postprocess(raw)).Passed {
				withPP++
			}
			if unittest.Run(p, raw).Passed {
				withoutPP++
			}
		}
	}
	b.ReportMetric(float64(withPP), "passes-with-postprocessing")
	b.ReportMetric(float64(withoutPP), "passes-without")
}

// BenchmarkAblationWildcardLabels measures how much better the
// label-aware KV-wildcard match tracks unit-test outcomes than plain KV
// exact match (the reason the labels exist).
func BenchmarkAblationWildcardLabels(b *testing.B) {
	originals, _ := fixtures()
	m, _ := llm.ByName("gpt-4")
	slice := originals[:150]
	var wildAgree, exactAgree float64
	for i := 0; i < b.N; i++ {
		agreeW, agreeE := 0, 0
		for _, p := range slice {
			answer := llm.Postprocess(m.Generate(p, llm.GenOptions{}))
			passed := unittest.Run(p, answer).Passed
			wild := yamlmatch.KVWildcardMatch(answer, p.ReferenceYAML) == 1
			exact := yamlmatch.KVExactMatch(answer, yamlmatch.StripLabels(p.ReferenceYAML)) == 1
			if wild == passed {
				agreeW++
			}
			if exact == passed {
				agreeE++
			}
		}
		wildAgree = float64(agreeW) / float64(len(slice))
		exactAgree = float64(agreeE) / float64(len(slice))
	}
	b.ReportMetric(wildAgree, "wildcard-agreement")
	b.ReportMetric(exactAgree, "exact-agreement")
}

// BenchmarkAblationCacheBandwidth sweeps the WAN bandwidth to show when
// the shared cache matters (Figure 5 sensitivity).
func BenchmarkAblationCacheBandwidth(b *testing.B) {
	originals, _ := fixtures()
	jobs := evalcluster.JobsFromProblems(benchEng, originals)
	var gainAt25, gainAt400 float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, mbps := range []float64{25, 400} {
			cfg := evalcluster.DefaultSimConfig(64, false)
			cfg.WANMbps = mbps
			noCache := evalcluster.Simulate(jobs, cfg)
			cfg.SharedCache = true
			cached := evalcluster.Simulate(jobs, cfg)
			gain := float64(noCache.Total) / float64(cached.Total)
			if mbps == 25 {
				gainAt25 = gain
			} else {
				gainAt400 = gain
			}
		}
	}
	b.ReportMetric(gainAt25, "cache-gain-25mbps")
	b.ReportMetric(gainAt400, "cache-gain-400mbps")
}

// BenchmarkAblationVirtualClock measures unit-test throughput: the
// virtual clock is why the whole 1011-problem campaign evaluates in
// seconds of real time instead of the paper's 10 wall-clock hours.
func BenchmarkAblationVirtualClock(b *testing.B) {
	originals, _ := fixtures()
	p := originals[0]
	ref := yamlmatch.StripLabels(p.ReferenceYAML)
	var virtualSecs float64
	start := time.Now()
	for i := 0; i < b.N; i++ {
		res := unittest.Run(p, ref)
		virtualSecs = res.VirtualTime.Seconds()
	}
	real := time.Since(start).Seconds() / float64(b.N)
	b.ReportMetric(virtualSecs, "virtual-secs/test")
	if real > 0 {
		b.ReportMetric(virtualSecs/real, "virtual-time-speedup")
	}
}
