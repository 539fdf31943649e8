package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"cloudeval/internal/loadgen"
)

const sample = `goos: linux
pkg: cloudeval
BenchmarkZeroShotSerial-8    	       1	3000000000 ns/op	         0.483 gpt4-unit-test
BenchmarkZeroShotEngine-8    	       1	 900000000 ns/op	      6675 cache-hits	         0.483 gpt4-unit-test	      5120 unit-tests-executed
BenchmarkZeroShotWarmStore   	       1	 500000000 ns/op	         0.483 gpt4-unit-test	      5120 store-hits	         0 unit-tests-executed
BenchmarkColdPathUnitTest-8  	   46807	     25000 ns/op	   13870 B/op	     227 allocs/op
BenchmarkColdPathCampaign-8  	     141	   8220631 ns/op	 3110758 B/op	   50274 allocs/op
PASS
`

func TestParseBench(t *testing.T) {
	got, err := parseBench(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("parsed %d benchmarks, want 5", len(got))
	}
	eng := got["ZeroShotEngine"]
	if eng.NsPerOp != 9e8 || eng.Metrics["cache-hits"] != 6675 || eng.Metrics["unit-tests-executed"] != 5120 {
		t.Errorf("ZeroShotEngine = %+v", eng)
	}
	// GOMAXPROCS suffix is optional (single-core runs omit it).
	if got["ZeroShotWarmStore"].Metrics["store-hits"] != 5120 {
		t.Errorf("ZeroShotWarmStore = %+v", got["ZeroShotWarmStore"])
	}
	// -benchmem columns land in dedicated fields, not the metric map.
	cold := got["ColdPathUnitTest"]
	if cold.BytesPerOp != 13870 || cold.AllocsPerOp != 227 {
		t.Errorf("ColdPathUnitTest = %+v", cold)
	}
	if _, ok := cold.Metrics["B/op"]; ok {
		t.Error("B/op leaked into the metric map")
	}
	r, err := ratio(got)
	if err != nil || r != 0.3 {
		t.Errorf("ratio = %v, %v; want 0.3", r, err)
	}
}

func writeSample(t *testing.T, dir string) string {
	t.Helper()
	benchPath := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(benchPath, []byte(sample), 0o644); err != nil {
		t.Fatal(err)
	}
	return benchPath
}

func writeBaseline(t *testing.T, dir string, art Artifact) string {
	t.Helper()
	baselinePath := filepath.Join(dir, "baseline.json")
	data, err := json.Marshal(art)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(baselinePath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return baselinePath
}

func TestRegressionGate(t *testing.T) {
	dir := t.TempDir()
	benchPath := writeSample(t, dir)

	// Current ratio 0.3 vs baseline ratio 0.3: within the gate.
	baselinePath := writeBaseline(t, dir, Artifact{
		Sha: "baseline",
		Benchmarks: map[string]BenchResult{
			"ZeroShotSerial": {Iterations: 1, NsPerOp: 3e9},
			"ZeroShotEngine": {Iterations: 1, NsPerOp: 9e8},
		},
	})
	outPath := filepath.Join(dir, "BENCH_abc.json")
	if err := run(benchPath, outPath, "abc", baselinePath, gates{maxRegress: 20}); err != nil {
		t.Fatalf("gate failed within tolerance: %v", err)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var art Artifact
	if err := json.Unmarshal(data, &art); err != nil {
		t.Fatal(err)
	}
	if art.Sha != "abc" || art.EngineVsSerial != 0.3 {
		t.Errorf("artifact = sha %q ratio %v", art.Sha, art.EngineVsSerial)
	}
	if art.Benchmarks["ColdPathUnitTest"].AllocsPerOp != 227 {
		t.Errorf("artifact lost allocs/op: %+v", art.Benchmarks["ColdPathUnitTest"])
	}

	// Baseline engine was 2x faster (ratio 0.15): current 0.3 is a 100%
	// regression and must fail the gate.
	baselinePath = writeBaseline(t, dir, Artifact{
		Sha: "baseline",
		Benchmarks: map[string]BenchResult{
			"ZeroShotSerial": {Iterations: 1, NsPerOp: 3e9},
			"ZeroShotEngine": {Iterations: 1, NsPerOp: 4.5e8},
		},
	})
	if err := run(benchPath, "", "abc", baselinePath, gates{maxRegress: 20}); err == nil {
		t.Fatal("gate passed a 100% engine regression")
	}

	// The same regression passes with the gate disabled.
	if err := run(benchPath, "", "abc", baselinePath, gates{}); err != nil {
		t.Fatalf("disabled gate failed: %v", err)
	}
}

func TestAllocGate(t *testing.T) {
	dir := t.TempDir()
	benchPath := writeSample(t, dir)

	// Baseline allocs match the sample: pass.
	ok := Artifact{Benchmarks: map[string]BenchResult{
		"ColdPathUnitTest": {Iterations: 1, NsPerOp: 25000, AllocsPerOp: 227},
		"ColdPathCampaign": {Iterations: 1, NsPerOp: 8.2e6, AllocsPerOp: 50274},
	}}
	if err := run(benchPath, "", "abc", writeBaseline(t, dir, ok), gates{maxAllocRegress: 15}); err != nil {
		t.Fatalf("alloc gate failed at parity: %v", err)
	}

	// Baseline was 100 allocs/op: the sample's 227 is a regression.
	bad := Artifact{Benchmarks: map[string]BenchResult{
		"ColdPathUnitTest": {Iterations: 1, NsPerOp: 25000, AllocsPerOp: 100},
	}}
	badPath := writeBaseline(t, dir, bad)
	if err := run(benchPath, "", "abc", badPath, gates{maxAllocRegress: 15}); err == nil {
		t.Fatal("alloc gate passed a 127% regression")
	}
	if err := run(benchPath, "", "abc", badPath, gates{}); err != nil {
		t.Fatalf("disabled alloc gate failed: %v", err)
	}

	// Benchmarks without an alloc baseline never participate.
	unrelated := Artifact{Benchmarks: map[string]BenchResult{
		"ZeroShotSerial": {Iterations: 1, NsPerOp: 3e9},
	}}
	if err := run(benchPath, "", "abc", writeBaseline(t, dir, unrelated), gates{maxAllocRegress: 15}); err != nil {
		t.Fatalf("alloc gate tripped without a baseline: %v", err)
	}
}

// TestArtifactWrittenOnBadBaseline pins the CI contract: the
// BENCH_<sha>.json artifact is written even when the baseline is
// missing or corrupt (the workflow uploads it with `if: always()`),
// and the baseline error still fails the run afterwards.
func TestArtifactWrittenOnBadBaseline(t *testing.T) {
	dir := t.TempDir()
	benchPath := writeSample(t, dir)
	outPath := filepath.Join(dir, "BENCH_bad.json")
	missing := filepath.Join(dir, "nope.json")
	if err := run(benchPath, outPath, "bad", missing, gates{maxRegress: 20}); err == nil {
		t.Fatal("missing baseline did not fail the run")
	}
	if _, err := os.Stat(outPath); err != nil {
		t.Fatalf("artifact not written on bad baseline: %v", err)
	}
}

const parallelSample = `goos: linux
pkg: cloudeval
BenchmarkCampaignParallel    	       3	 320000000 ns/op	 4000000 B/op	   20000 allocs/op
BenchmarkCampaignParallel-4  	       4	 100000000 ns/op	 4100000 B/op	   20500 allocs/op
BenchmarkGenerateBatched-4   	      50	  11000000 ns/op	 4340000 B/op	   15729 allocs/op
PASS
`

func TestParseBenchFoldsCPUVariants(t *testing.T) {
	got, err := parseBench(strings.NewReader(parallelSample))
	if err != nil {
		t.Fatal(err)
	}
	cp, ok := got["CampaignParallel"]
	if !ok {
		t.Fatalf("CampaignParallel missing; parsed %v", got)
	}
	if cp.ByCPU["1"] != 3.2e8 || cp.ByCPU["4"] != 1e8 {
		t.Errorf("ByCPU = %v, want 1:3.2e8 4:1e8", cp.ByCPU)
	}
	// Headline fields hold the last -cpu line parsed.
	if cp.NsPerOp != 1e8 || cp.AllocsPerOp != 20500 {
		t.Errorf("headline = %+v, want the -4 line", cp)
	}
	scale, ok := parallelScale(got)
	if !ok || scale != 3.2 {
		t.Errorf("parallelScale = %v, %v; want 3.2", scale, ok)
	}
	// A single-cpu run (no -4 line) yields no scaling figure.
	single, err := parseBench(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := parallelScale(single); ok {
		t.Error("parallelScale reported a figure without -cpu 1,4 data")
	}
}

// repeatSample is -count 5 of the engine-ratio pair, with the serial
// run's slowest repeat last, -count 3 of Table4ZeroShot, whose first
// repeat runs cold and the rest warm, and -count 2 -cpu 1,4 of
// CampaignParallel.
const repeatSample = `goos: linux
pkg: cloudeval
BenchmarkZeroShotSerial-2    	       1	2700000000 ns/op	         0.483 gpt4-unit-test
BenchmarkZeroShotSerial-2    	       1	2800000000 ns/op	         0.483 gpt4-unit-test
BenchmarkZeroShotSerial-2    	       1	2750000000 ns/op	         0.483 gpt4-unit-test
BenchmarkZeroShotSerial-2    	       1	2600000000 ns/op	         0.483 gpt4-unit-test
BenchmarkZeroShotSerial-2    	       1	4000000000 ns/op	         0.483 gpt4-unit-test
BenchmarkZeroShotEngine-2    	       1	 250000000 ns/op	      7459 cache-hits	 7348112 B/op	   49090 allocs/op
BenchmarkZeroShotEngine-2    	       1	 400000000 ns/op	      7459 cache-hits	 7265120 B/op	   48587 allocs/op
BenchmarkZeroShotEngine-2    	       1	 240000000 ns/op	      7459 cache-hits	 7240752 B/op	   48260 allocs/op
BenchmarkZeroShotEngine-2    	       1	 275000000 ns/op	      7459 cache-hits	 7243592 B/op	   48464 allocs/op
BenchmarkZeroShotEngine-2    	       1	 260000000 ns/op	      7459 cache-hits	 7226560 B/op	   48222 allocs/op
BenchmarkTable4ZeroShot-2    	       1	 455000000 ns/op	         0.483 gpt4-unit-test	75946928 B/op	  530112 allocs/op
BenchmarkTable4ZeroShot-2    	       1	 130000000 ns/op	         0.483 gpt4-unit-test	 2426312 B/op	    1683 allocs/op
BenchmarkTable4ZeroShot-2    	       1	 135000000 ns/op	         0.483 gpt4-unit-test	 2431000 B/op	    1702 allocs/op
BenchmarkCampaignParallel    	       3	 320000000 ns/op	 4000000 B/op	   20000 allocs/op
BenchmarkCampaignParallel    	       3	 360000000 ns/op	 4000000 B/op	   21000 allocs/op
BenchmarkCampaignParallel-4  	       4	 100000000 ns/op	 4100000 B/op	   20500 allocs/op
BenchmarkCampaignParallel-4  	       4	 120000000 ns/op	 4100000 B/op	   20400 allocs/op
PASS
`

// TestParseBenchMedianOfRepeats: the repeated lines of one name and
// GOMAXPROCS fold into their median ns/op, so one slow repeat moves
// neither side of the engine ratio, and into their highest B/op and
// allocs/op, so a cold first repeat stays under the allocation gate
// whatever order the repeats print in.
func TestParseBenchMedianOfRepeats(t *testing.T) {
	got, err := parseBench(strings.NewReader(repeatSample))
	if err != nil {
		t.Fatal(err)
	}
	serial, eng := got["ZeroShotSerial"], got["ZeroShotEngine"]
	if serial.NsPerOp != 2.75e9 || serial.ByCPU["2"] != 2.75e9 {
		t.Errorf("ZeroShotSerial = %+v, want median 2.75e9", serial)
	}
	if eng.NsPerOp != 2.6e8 || eng.AllocsPerOp != 49090 || eng.BytesPerOp != 7348112 || eng.Metrics["cache-hits"] != 7459 {
		t.Errorf("ZeroShotEngine = %+v, want median 2.6e8 and the highest B/op and allocs", eng)
	}
	if t4 := got["Table4ZeroShot"]; t4.NsPerOp != 1.35e8 || t4.AllocsPerOp != 530112 || t4.BytesPerOp != 75946928 {
		t.Errorf("Table4ZeroShot = %+v, want median 1.35e8 and the cold repeat's 530112 allocs, 75946928 B", t4)
	}
	if r, err := ratio(got); err != nil || r != 2.6e8/2.75e9 {
		t.Errorf("ratio = %v, %v; want %v", r, err, 2.6e8/2.75e9)
	}
	// An even count takes the mean of the two middle values, and each
	// GOMAXPROCS folds on its own.
	cp := got["CampaignParallel"]
	if cp.ByCPU["1"] != 3.4e8 || cp.ByCPU["4"] != 1.1e8 || cp.NsPerOp != 1.1e8 || cp.AllocsPerOp != 20500 {
		t.Errorf("CampaignParallel = %+v, want ByCPU 1:3.4e8 4:1.1e8, headline 1.1e8 with the -4 lines' highest allocs", cp)
	}
}

func TestParallelScaleGate(t *testing.T) {
	good, err := parseBench(strings.NewReader(parallelSample))
	if err != nil {
		t.Fatal(err)
	}
	bad, err := parseBench(strings.NewReader(strings.ReplaceAll(
		parallelSample, " 100000000 ns/op", " 200000000 ns/op")))
	if err != nil {
		t.Fatal(err)
	}
	if err := gateParallelScale(good, 0); err != nil {
		t.Fatalf("disabled gate failed: %v", err)
	}
	if runtime.NumCPU() < 4 {
		// The gate must announce itself skipped, not fail, on small
		// runners — including this one.
		if err := gateParallelScale(bad, 2.5); err != nil {
			t.Fatalf("gate did not skip on a %d-CPU machine: %v", runtime.NumCPU(), err)
		}
		t.Skipf("%d CPUs: enforcement paths need >= 4", runtime.NumCPU())
	}
	if err := gateParallelScale(good, 2.5); err != nil {
		t.Fatalf("gate failed a 3.2x speedup: %v", err)
	}
	if err := gateParallelScale(bad, 2.5); err == nil {
		t.Fatal("gate passed a 1.6x speedup")
	}
	if err := gateParallelScale(map[string]BenchResult{}, 2.5); err == nil {
		t.Fatal("gate passed with no CampaignParallel measurements")
	}
}

const storeSample = `goos: linux
pkg: cloudeval
BenchmarkStoreAppendParallel    	    1000	     30000 ns/op	         8.000 frames-per-flush
BenchmarkStoreAppendParallel-4  	    4000	     15000 ns/op	        24.00 frames-per-flush
BenchmarkStoreOpenWarm-4        	      20	  22000000 ns/op	      5000 records-replayed
PASS
`

func TestStoreScaleGate(t *testing.T) {
	good, err := parseBench(strings.NewReader(storeSample))
	if err != nil {
		t.Fatal(err)
	}
	if scale, ok := storeScale(good); !ok || scale != 2.0 {
		t.Errorf("storeScale = %v, %v; want 2.0", scale, ok)
	}
	if warm, ok := good["StoreOpenWarm"]; !ok || warm.Metrics["records-replayed"] != 5000 {
		t.Errorf("StoreOpenWarm = %+v, want records-replayed 5000", warm)
	}
	bad, err := parseBench(strings.NewReader(strings.ReplaceAll(
		storeSample, "     15000 ns/op", "     25000 ns/op")))
	if err != nil {
		t.Fatal(err)
	}
	if err := gateStoreScale(good, 0); err != nil {
		t.Fatalf("disabled gate failed: %v", err)
	}
	if runtime.NumCPU() < 4 {
		// The gate must announce itself skipped, not fail, on small
		// runners — including this one.
		if err := gateStoreScale(bad, 1.5); err != nil {
			t.Fatalf("gate did not skip on a %d-CPU machine: %v", runtime.NumCPU(), err)
		}
		t.Skipf("%d CPUs: enforcement paths need >= 4", runtime.NumCPU())
	}
	if err := gateStoreScale(good, 1.5); err != nil {
		t.Fatalf("gate failed a 2.0x speedup: %v", err)
	}
	if err := gateStoreScale(bad, 1.5); err == nil {
		t.Fatal("gate passed a 1.2x speedup")
	}
	if err := gateStoreScale(map[string]BenchResult{}, 1.5); err == nil {
		t.Fatal("gate passed with no StoreAppendParallel measurements")
	}
}

// coldGetSample is the store's read-path benchmark with -benchmem.
const coldGetSample = `goos: linux
pkg: cloudeval
BenchmarkStoreColdGet-4         	  200000	      6500 ns/op	     824 B/op	      11 allocs/op
PASS
`

// pipelineSample pairs the pipelined and interleaved latency-campaign
// benchmarks of one run: 8x apart at 4 cores, 20x at 1 core (a single
// executor leaves the most latency exposed in the interleaved shape).
const pipelineSample = `goos: linux
pkg: cloudeval
BenchmarkCampaignPipelined      	       5	 200000000 ns/op	        64.00 peak-gen-inflight
BenchmarkCampaignPipelined-4    	      10	 150000000 ns/op	        64.00 peak-gen-inflight
BenchmarkCampaignInterleaved    	       1	4000000000 ns/op
BenchmarkCampaignInterleaved-4  	       1	1200000000 ns/op
PASS
`

func TestPipelineOverlapGate(t *testing.T) {
	benchmarks, err := parseBench(strings.NewReader(pipelineSample))
	if err != nil {
		t.Fatal(err)
	}
	// The ratio must come from the 4-core points (8x), not the 1-core
	// headline fallback (20x).
	if overlap, ok := pipelineOverlap(benchmarks); !ok || overlap != 8 {
		t.Errorf("pipelineOverlap = %v, %v; want 8 from the 4-core points", overlap, ok)
	}
	// Without -cpu points the headline ns/op carries the ratio.
	headline := map[string]BenchResult{
		pipelinedBench:   {NsPerOp: 100},
		interleavedBench: {NsPerOp: 300},
	}
	if overlap, ok := pipelineOverlap(headline); !ok || overlap != 3 {
		t.Errorf("headline pipelineOverlap = %v, %v; want 3", overlap, ok)
	}
	bad, err := parseBench(strings.NewReader(strings.ReplaceAll(
		pipelineSample, " 150000000 ns/op", " 1000000000 ns/op")))
	if err != nil {
		t.Fatal(err)
	}
	if err := gatePipelineOverlap(benchmarks, 0); err != nil {
		t.Fatalf("disabled gate failed: %v", err)
	}
	if runtime.NumCPU() < 4 {
		// The gate must announce itself skipped, not fail, on small
		// runners — including this one.
		if err := gatePipelineOverlap(bad, 1.54); err != nil {
			t.Fatalf("gate did not skip on a %d-CPU machine: %v", runtime.NumCPU(), err)
		}
		t.Skipf("%d CPUs: enforcement paths need >= 4", runtime.NumCPU())
	}
	if err := gatePipelineOverlap(benchmarks, 1.54); err != nil {
		t.Fatalf("gate failed an 8x overlap: %v", err)
	}
	if err := gatePipelineOverlap(bad, 1.54); err == nil {
		t.Fatal("gate passed a 1.2x overlap")
	}
	if err := gatePipelineOverlap(map[string]BenchResult{}, 1.54); err == nil {
		t.Fatal("gate passed with neither campaign benchmark present")
	}
}

// TestPipelineOverlapInArtifact: the measured overlap folds into the
// written artifact whether or not the gate is active.
func TestPipelineOverlapInArtifact(t *testing.T) {
	dir := t.TempDir()
	benchPath := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(benchPath, []byte(pipelineSample), 0o644); err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(dir, "BENCH_pipe.json")
	if err := run(benchPath, outPath, "pipe", "", gates{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var art Artifact
	if err := json.Unmarshal(data, &art); err != nil {
		t.Fatal(err)
	}
	if art.PipelineOverlap != 8 {
		t.Errorf("artifact pipeline overlap = %v, want 8", art.PipelineOverlap)
	}
}

func TestColdGetAllocCapGate(t *testing.T) {
	benchmarks, err := parseBench(strings.NewReader(coldGetSample))
	if err != nil {
		t.Fatal(err)
	}
	// Sample StoreColdGet is 11 allocs/op; cap 24 passes, 10 fails.
	if err := gateColdGetAllocCap(benchmarks, Artifact{StoreColdGetMaxAllocs: 24}); err != nil {
		t.Fatalf("cap gate failed under the cap: %v", err)
	}
	if err := gateColdGetAllocCap(benchmarks, Artifact{StoreColdGetMaxAllocs: 10}); err == nil {
		t.Fatal("cap gate passed 11 allocs/op against a 10 cap")
	}
	if err := gateColdGetAllocCap(benchmarks, Artifact{}); err != nil {
		t.Fatalf("cap gate tripped without a baseline record: %v", err)
	}
	if err := gateColdGetAllocCap(map[string]BenchResult{}, Artifact{StoreColdGetMaxAllocs: 24}); err != nil {
		t.Fatalf("cap gate tripped on a run without the benchmark: %v", err)
	}

	// The cap is carried from the baseline into the artifact.
	dir := t.TempDir()
	benchPath := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(benchPath, []byte(coldGetSample), 0o644); err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(dir, "BENCH_cold.json")
	base := Artifact{StoreColdGetMaxAllocs: 24}
	if err := run(benchPath, outPath, "cold", writeBaseline(t, dir, base), gates{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var art Artifact
	if err := json.Unmarshal(data, &art); err != nil {
		t.Fatal(err)
	}
	if art.StoreColdGetMaxAllocs != 24 {
		t.Errorf("artifact cold-get cap = %v, want 24 carried from baseline", art.StoreColdGetMaxAllocs)
	}
}

func TestScoreAnswerAllocCapGate(t *testing.T) {
	const sample = `goos: linux
pkg: cloudeval
BenchmarkScoreAnswer-4   	   13195	     21000 ns/op	     712 B/op	       1 allocs/op
PASS
`
	benchmarks, err := parseBench(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if err := gateScoreAnswerAllocCap(benchmarks, Artifact{ScoreAnswerMaxAllocs: 8}); err != nil {
		t.Fatalf("cap gate failed under the cap: %v", err)
	}
	benchmarks["ScoreAnswer"] = BenchResult{AllocsPerOp: 330} // the two-string forms
	if err := gateScoreAnswerAllocCap(benchmarks, Artifact{ScoreAnswerMaxAllocs: 8}); err == nil {
		t.Fatal("cap gate passed 330 allocs/op against a cap of 8")
	}
	if err := gateScoreAnswerAllocCap(benchmarks, Artifact{}); err != nil {
		t.Fatalf("cap gate tripped without a baseline record: %v", err)
	}

	// End to end: the cap is carried from baseline into the artifact.
	dir := t.TempDir()
	benchPath := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(benchPath, []byte(sample), 0o644); err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(dir, "BENCH_score.json")
	if err := run(benchPath, outPath, "score", writeBaseline(t, dir, Artifact{ScoreAnswerMaxAllocs: 8}), gates{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var art Artifact
	if err := json.Unmarshal(data, &art); err != nil {
		t.Fatal(err)
	}
	if art.ScoreAnswerMaxAllocs != 8 {
		t.Errorf("artifact cap = %v, want 8 carried from baseline", art.ScoreAnswerMaxAllocs)
	}
}

func TestAllocCapGate(t *testing.T) {
	benchmarks, err := parseBench(strings.NewReader(parallelSample))
	if err != nil {
		t.Fatal(err)
	}
	// Sample GenerateBatched is 15729 allocs/op; cap 35500 passes.
	if err := gateAllocCap(benchmarks, Artifact{GenerateBatchedMaxAllocs: 35500}); err != nil {
		t.Fatalf("cap gate failed under the cap: %v", err)
	}
	if err := gateAllocCap(benchmarks, Artifact{GenerateBatchedMaxAllocs: 15000}); err == nil {
		t.Fatal("cap gate passed 15729 allocs/op against a 15000 cap")
	}
	// No recorded cap, or a run that skipped the benchmark: inactive.
	if err := gateAllocCap(benchmarks, Artifact{}); err != nil {
		t.Fatalf("cap gate tripped without a baseline record: %v", err)
	}
	if err := gateAllocCap(map[string]BenchResult{}, Artifact{GenerateBatchedMaxAllocs: 100}); err != nil {
		t.Fatalf("cap gate tripped on a run without the benchmark: %v", err)
	}

	// End to end: the cap is carried from baseline into the artifact.
	dir := t.TempDir()
	benchPath := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(benchPath, []byte(parallelSample), 0o644); err != nil {
		t.Fatal(err)
	}
	base := Artifact{GenerateBatchedMaxAllocs: 35500}
	outPath := filepath.Join(dir, "BENCH_cap.json")
	if err := run(benchPath, outPath, "cap", writeBaseline(t, dir, base), gates{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var art Artifact
	if err := json.Unmarshal(data, &art); err != nil {
		t.Fatal(err)
	}
	if art.GenerateBatchedMaxAllocs != 35500 {
		t.Errorf("artifact cap = %v, want 35500", art.GenerateBatchedMaxAllocs)
	}
	if art.CampaignParallelScaling != 3.2 {
		t.Errorf("artifact scaling = %v, want 3.2", art.CampaignParallelScaling)
	}
}

// healthyReport is a plausible loadgen report for a healthy service.
func healthyReport() loadgen.Report {
	return loadgen.Report{
		Target: "http://127.0.0.1:1", Requests: 200, Concurrency: 8,
		DurationSec: 2, ThroughputQPS: 100,
		LatencyMs: loadgen.Latency{P50: 3, P95: 12, P99: 40, Mean: 5, Max: 55},
	}
}

func writeLoadgenReport(t *testing.T, dir string, rep loadgen.Report) string {
	t.Helper()
	path := filepath.Join(dir, "loadgen.json")
	if err := loadgen.WriteReport(path, rep); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadgenLatencyGate is the seeded-regression check: a report whose
// p99 exceeds the ceiling must fail the gate (cpus forced to 4 so the
// enforcement path runs regardless of the host).
func TestLoadgenLatencyGate(t *testing.T) {
	good := healthyReport()
	if err := gateLoadgenLatency(good, 100, 4); err != nil {
		t.Fatalf("latency gate failed a 40ms p99 against a 100ms ceiling: %v", err)
	}

	// The seeded regression: p99 blows past the ceiling.
	bad := healthyReport()
	bad.LatencyMs.P99 = 250
	if err := gateLoadgenLatency(bad, 100, 4); err == nil {
		t.Fatal("latency gate passed a 250ms p99 against a 100ms ceiling")
	}

	// Small runners skip loudly instead of measuring scheduler noise.
	if err := gateLoadgenLatency(bad, 100, 2); err != nil {
		t.Fatalf("latency gate did not skip on a 2-CPU machine: %v", err)
	}
	// Ceiling 0 disables.
	if err := gateLoadgenLatency(bad, 0, 4); err != nil {
		t.Fatalf("disabled latency gate failed: %v", err)
	}
}

func TestLoadgenErrorRateGate(t *testing.T) {
	good := healthyReport()
	if err := gateLoadgenErrors(good, 0.01); err != nil {
		t.Fatalf("error gate failed a clean report: %v", err)
	}
	// A ceiling of exactly 0 is active: no errors tolerated.
	if err := gateLoadgenErrors(good, 0); err != nil {
		t.Fatalf("zero-ceiling gate failed a clean report: %v", err)
	}

	bad := healthyReport()
	bad.ErrorRate = 0.05
	bad.Errors = map[string]int{"rate_limited": 8, "http_500": 2}
	err := gateLoadgenErrors(bad, 0.01)
	if err == nil {
		t.Fatal("error gate passed a 5% error rate against a 1% ceiling")
	}
	// The failure names the error classes, so CI logs say what broke.
	if !strings.Contains(err.Error(), "rate_limited=8") {
		t.Errorf("error gate failure does not name the classes: %v", err)
	}
	// Negative disables.
	if err := gateLoadgenErrors(bad, -1); err != nil {
		t.Fatalf("disabled error gate failed: %v", err)
	}
}

// TestLoadgenGateEndToEnd drives the -loadgen path through run(): the
// report folds into the artifact, a healthy report passes, a seeded
// regression fails, and a corrupt report still writes the artifact.
func TestLoadgenGateEndToEnd(t *testing.T) {
	if runtime.NumCPU() < 4 {
		t.Skipf("%d CPUs: the p99 enforcement path needs >= 4", runtime.NumCPU())
	}
	dir := t.TempDir()
	benchPath := writeSample(t, dir)
	repPath := writeLoadgenReport(t, dir, healthyReport())
	outPath := filepath.Join(dir, "BENCH_lg.json")

	g := gates{loadgenPath: repPath, maxP99Ms: 100, maxErrorRate: 0.01}
	if err := run(benchPath, outPath, "lg", "", g); err != nil {
		t.Fatalf("healthy loadgen report failed the gates: %v", err)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var art Artifact
	if err := json.Unmarshal(data, &art); err != nil {
		t.Fatal(err)
	}
	if art.Loadgen == nil || art.Loadgen.LatencyMs.P99 != 40 || art.Loadgen.Requests != 200 {
		t.Errorf("loadgen report not folded into the artifact: %+v", art.Loadgen)
	}

	// Seeded regression through the full run() path.
	slow := healthyReport()
	slow.LatencyMs.P99 = 250
	g.loadgenPath = writeLoadgenReport(t, dir, slow)
	if err := run(benchPath, "", "lg", "", g); err == nil {
		t.Fatal("run() passed a seeded p99 regression")
	}

	// A corrupt report fails the run but never suppresses the artifact.
	corrupt := filepath.Join(dir, "corrupt.json")
	if err := os.WriteFile(corrupt, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	outPath2 := filepath.Join(dir, "BENCH_corrupt.json")
	g.loadgenPath = corrupt
	if err := run(benchPath, outPath2, "lg", "", g); err == nil {
		t.Fatal("corrupt loadgen report did not fail the run")
	}
	if _, err := os.Stat(outPath2); err != nil {
		t.Fatalf("artifact not written on corrupt loadgen report: %v", err)
	}
}

func TestColdSpeedupGate(t *testing.T) {
	dir := t.TempDir()
	benchPath := writeSample(t, dir)

	// Pre-PR cost 100000 ns, sample 25000 ns: 4x, passes a 2x gate.
	pass := Artifact{ColdPrePRNs: 100000}
	if err := run(benchPath, "", "abc", writeBaseline(t, dir, pass), gates{minColdSpeedup: 2}); err != nil {
		t.Fatalf("cold gate failed a 4x speedup: %v", err)
	}

	// Pre-PR cost 40000 ns: 1.6x only, fails a 2x gate.
	fail := Artifact{ColdPrePRNs: 40000}
	failPath := writeBaseline(t, dir, fail)
	if err := run(benchPath, "", "abc", failPath, gates{minColdSpeedup: 2}); err == nil {
		t.Fatal("cold gate passed a 1.6x speedup")
	}
	if err := run(benchPath, "", "abc", failPath, gates{}); err != nil {
		t.Fatalf("disabled cold gate failed: %v", err)
	}

	// A baseline without the cold record disables the gate even when
	// the flag is set (pre-PR repositories).
	empty := Artifact{Benchmarks: map[string]BenchResult{}}
	if err := run(benchPath, "", "abc", writeBaseline(t, dir, empty), gates{minColdSpeedup: 2}); err != nil {
		t.Fatalf("cold gate tripped without a baseline record: %v", err)
	}
}
