// Cold-path benchmarks: the cost of a cache-miss evaluation, with the
// engine's memoization and the persistent store out of the picture.
// PR 1/PR 2 made the warm path nearly free; these benchmarks measure —
// and cmd/benchguard gates — what everything new (first-run campaigns,
// pass@k sampling, augmentation sweeps) pays per execution.
//
// Run with allocation profiling:
//
//	go test -bench ColdPath -benchmem -benchtime 10x -run '^$' .
//
// BenchmarkColdPathUnitTest keeps the cold-path infrastructure (each
// problem's compiled unit test, the yamlx document cache, environment
// pools) in place: that is the path a cache-miss takes in production.
package cloudeval_test

import (
	"testing"

	"cloudeval/internal/dataset"
	"cloudeval/internal/engine"
	"cloudeval/internal/llm"
	"cloudeval/internal/unittest"
	"cloudeval/internal/yamlmatch"
)

// coldSample picks a spread of problems across categories so the
// single-execution benchmarks are not dominated by one script shape.
func coldSample(n int) []dataset.Problem {
	originals, _ := fixtures()
	if n > len(originals) {
		n = len(originals)
	}
	step := len(originals) / n
	if step == 0 {
		step = 1
	}
	out := make([]dataset.Problem, 0, n)
	for i := 0; i < len(originals) && len(out) < n; i += step {
		out = append(out, originals[i])
	}
	return out
}

// BenchmarkColdPathUnitTest is the headline cold single-execution
// number: one unit test executed end to end (fresh simulated
// environment, script run, result extracted) with no result caching.
// cmd/benchguard's cold-speedup row holds it below its pre-optimization
// cost, and its allocs row holds allocs/op to ci/bench-baseline.json.
func BenchmarkColdPathUnitTest(b *testing.B) {
	probs := coldSample(16)
	refs := make([]string, len(probs))
	for i, p := range probs {
		refs[i] = yamlmatch.StripLabels(p.ReferenceYAML)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := probs[i%len(probs)]
		res := unittest.Run(p, refs[i%len(probs)])
		if res.Err != nil {
			b.Fatal(res.Err)
		}
	}
}

// BenchmarkColdPathCompose is the cold single-execution number for the
// Docker Compose family: one compose unit test end to end (fresh
// composesim project, config validation, up, port probes) with no
// result caching. It holds the extension families to the same
// allocation diet the benchguard baseline pins for the Kubernetes
// path.
func BenchmarkColdPathCompose(b *testing.B) {
	originals, _ := fixtures()
	var probs []dataset.Problem
	for _, p := range originals {
		if p.Subcategory == "compose" {
			probs = append(probs, p)
		}
	}
	if len(probs) == 0 {
		b.Fatal("no compose problems in the corpus")
	}
	refs := make([]string, len(probs))
	for i, p := range probs {
		refs[i] = yamlmatch.StripLabels(p.ReferenceYAML)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := probs[i%len(probs)]
		res := unittest.Run(p, refs[i%len(probs)])
		if res.Err != nil {
			b.Fatal(res.Err)
		}
		if !res.Passed {
			b.Fatalf("%s: reference failed", p.ID)
		}
	}
}

// BenchmarkColdPathCampaign is cold full-campaign throughput: one
// model's answers over the original corpus through an engine with
// memoization disabled, so every job executes. This is the first-run
// cost of anything new — a fresh model, a fresh augmentation, a pass@k
// sample at nonzero temperature.
func BenchmarkColdPathCampaign(b *testing.B) {
	originals, _ := fixtures()
	m, _ := llm.ByName("gpt-4")
	answers := make([]string, len(originals))
	for i, p := range originals {
		answers[i] = llm.Postprocess(m.Generate(p, llm.GenOptions{}))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := engine.New(engine.WithoutCache())
		passed := 0
		results := make([]unittest.Result, len(originals))
		eng.ForEach(len(originals), func(j int) {
			results[j] = eng.UnitTest(originals[j], answers[j])
		})
		for _, r := range results {
			if r.Passed {
				passed++
			}
		}
		if passed == 0 {
			b.Fatal("no passes in cold campaign")
		}
	}
}
