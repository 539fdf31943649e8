// Command benchguard turns `go test -bench` output into a JSON
// benchmark artifact and enforces the CI bench-regression gates.
//
//	go test -bench 'ZeroShot|ColdPath' -benchmem -benchtime 1x -run '^$' . | tee bench.txt
//	benchguard -in bench.txt -out BENCH_$SHA.json -sha $SHA \
//	    -baseline ci/bench-baseline.json -max-regress 20
//
// The artifact records ns/op, B/op, allocs/op and every ReportMetric
// value (cache hit counts, unit-tests-executed, ...) for each
// benchmark. Benchmarks run at several -cpu values fold into one
// entry whose ns_per_op_by_cpu map keeps each GOMAXPROCS point.
// Five gates run against the checked-in baseline:
//
//  1. Engine ratio (-max-regress): the machine-independent ratio
//     engine-ns ÷ serial-ns from the same run must not exceed the
//     baseline ratio by more than the given percent. Raw ns/op swings
//     with whatever hardware CI lands on, but the engine must stay
//     proportionally ahead of the serial loop it replaced.
//  2. Allocations (-max-alloc-regress): for every benchmark that has
//     an allocs/op baseline, the current allocs/op must not exceed it
//     by more than the given percent. Allocation counts are
//     deterministic and hardware-independent, so this gate is tight —
//     it is what holds the cold-path allocation diet in place.
//  3. Cold-path speedup (-min-cold-speedup): the baseline records the
//     pre-optimization cold single-execution cost in
//     cold_unittest_pre_pr_ns; BenchmarkColdPathUnitTest must stay at
//     least that factor below it. This is the one deliberately
//     hardware-sensitive gate — the recorded speedup is ~4x and the
//     required factor 2x, which leaves room for runner variance while
//     still catching a real cold-path regression.
//  4. Parallel scaling (-min-parallel-speedup): CampaignParallel run
//     with -cpu 1,4 must be at least the given factor faster at 4
//     cores. This is the contention gate — it catches a reintroduced
//     global lock even when single-thread ns/op stays flat. Skipped
//     (loudly) on runners with fewer than 4 CPUs.
//  5. Allocation hard cap (no flag): when the baseline records
//     generate_batched_max_allocs, GenerateBatched allocs/op must stay
//     at or under it. Unlike gate 2 this cap does not ratchet with
//     baseline re-records.
//  8. Store scaling (-min-store-speedup): StoreAppendParallel run with
//     -cpu 1,4 must be at least the given factor faster at 4 cores —
//     appends under the store's per-shard log locks must scale with
//     writers, not serialize on one shared lock. Skipped (loudly) on
//     runners with fewer than 4 CPUs, like the campaign parallel gate.
//  10. Cold-read allocation hard cap (no flag): when the baseline
//     records store_cold_get_max_allocs, StoreColdGet allocs/op must
//     stay at or under it — the pread + verify + decode path must not
//     grow allocation fat. Like gate 5 the cap does not ratchet with
//     baseline re-records.
//  11. Pipeline overlap (-min-pipeline-overlap): CampaignPipelined
//     must be at least the given factor faster than
//     CampaignInterleaved from the same run — the streaming
//     generation→execution pipeline must keep provider latency
//     overlapped with unit-test execution instead of paying them in
//     sequence. Both benchmarks run the identical latency-injected
//     campaign in the same process, so the ratio is hardware-
//     independent; measured at the 4-core -cpu point when the run
//     recorded one. Skipped (loudly) on runners with fewer than 4
//     CPUs, like the parallel gates.
//  12. Scoring allocation hard cap (no flag): when the baseline records
//     score_answer_max_allocs, ScoreAnswer allocs/op — one
//     score.Evaluator.Score call on a warm engine — must stay at or
//     under it: the five inline metrics run on compiled references and
//     pooled scratch, and must not start building strings, maps and
//     slices per answer again. Like gates 5 and 10 the cap does not
//     ratchet with baseline re-records.
//
// With -loadgen, a `cloudeval loadgen -out` report joins the artifact
// under "loadgen" and two service-tier gates run against it:
//
//  6. Service p99 (-max-p99-ms): the report's p99 latency must not
//     exceed the given milliseconds. Like the parallel gate it needs
//     real cores to mean anything, so it announces itself skipped on
//     machines with fewer than 4 CPUs.
//  7. Service error rate (-max-error-rate): the report's error rate
//     must not exceed the given fraction. Error classification is
//     hardware-independent, so this gate never skips.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"cloudeval/internal/loadgen"
)

// BenchResult is one benchmark's measurements. When a benchmark runs
// at several -cpu values, the headline fields hold the last line
// parsed (the highest requested GOMAXPROCS, matching go test's output
// order) and ByCPU records ns/op per GOMAXPROCS — the raw material of
// the parallel-scaling gate.
type BenchResult struct {
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	ByCPU       map[string]float64 `json:"ns_per_op_by_cpu,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Artifact is the BENCH_<sha>.json schema; ci/bench-baseline.json uses
// the same shape.
type Artifact struct {
	Sha        string                 `json:"sha"`
	Benchmarks map[string]BenchResult `json:"benchmarks"`
	// EngineVsSerial is ZeroShotEngine ns/op divided by ZeroShotSerial
	// ns/op from the same run — the hardware-independent quantity the
	// regression gate tracks (lower is better).
	EngineVsSerial float64 `json:"engine_vs_serial_ns_ratio,omitempty"`
	// ColdPrePRNs is the cold single-execution ns/op measured before
	// the cold-path overhaul (PR 3), recorded once in the baseline.
	// The cold gate requires ColdPathUnitTest to stay at least
	// -min-cold-speedup times below it.
	ColdPrePRNs float64 `json:"cold_unittest_pre_pr_ns,omitempty"`
	// CampaignParallelScaling is CampaignParallel's 1-core ns/op
	// divided by its 4-core ns/op from this run — the lock-behavior
	// quantity the parallel gate tracks (higher is better). Recorded
	// only when the run included -cpu 1,4.
	CampaignParallelScaling float64 `json:"campaign_parallel_scaling,omitempty"`
	// StoreAppendParallelScaling is StoreAppendParallel's 1-core ns/op
	// divided by its 4-core ns/op — the sharded store's write-path
	// scaling the store gate tracks. Recorded only when the run
	// included -cpu 1,4.
	StoreAppendParallelScaling float64 `json:"store_append_parallel_scaling,omitempty"`
	// GenerateBatchedMaxAllocs is the hard allocs/op ceiling for
	// BenchmarkGenerateBatched, recorded once in the baseline (PR 6
	// set it to 50% of the pre-diet 71,015). Unlike the relative
	// -max-alloc-regress gate, this cap cannot drift upward by
	// re-recording the baseline from a regressed run.
	GenerateBatchedMaxAllocs float64 `json:"generate_batched_max_allocs,omitempty"`
	// StoreColdGetMaxAllocs is the hard allocs/op ceiling for
	// BenchmarkStoreColdGet — the store's pread + CRC + decode read
	// path. Recorded once in the baseline; does not move with
	// baseline re-records.
	StoreColdGetMaxAllocs float64 `json:"store_cold_get_max_allocs,omitempty"`
	// ScoreAnswerMaxAllocs is the hard allocs/op ceiling for
	// BenchmarkScoreAnswer — one Evaluator.Score call on a warm engine.
	// Recorded once in the baseline; does not move with baseline
	// re-records.
	ScoreAnswerMaxAllocs float64 `json:"score_answer_max_allocs,omitempty"`
	// PipelineOverlap is CampaignInterleaved ns/op divided by
	// CampaignPipelined ns/op from this run — how much the streaming
	// pipeline hides the injected provider latency behind unit-test
	// execution (higher is better; 1.0 means no overlap at all).
	// Recorded whenever both benchmarks ran, at the 4-core -cpu point
	// when one was recorded.
	PipelineOverlap float64 `json:"pipeline_overlap,omitempty"`
	// Loadgen is the service-tier load report (-loadgen) folded in
	// verbatim, so one artifact carries both the micro-benchmarks and
	// the HTTP-path latency distribution of the same commit.
	Loadgen *loadgen.Report `json:"loadgen,omitempty"`
}

// coldBench is the benchmark the cold-speedup gate inspects.
const coldBench = "ColdPathUnitTest"

// parallelBench is the benchmark the parallel-scaling gate inspects.
const parallelBench = "CampaignParallel"

// allocCapBench is the benchmark the hard allocation cap inspects.
const allocCapBench = "GenerateBatched"

// storeBench is the benchmark the store-scaling gate inspects.
const storeBench = "StoreAppendParallel"

// coldGetBench is the benchmark the cold-read allocation cap inspects.
const coldGetBench = "StoreColdGet"

// scoreAnswerBench is the benchmark the scoring allocation cap inspects.
const scoreAnswerBench = "ScoreAnswer"

// Benchmarks the pipeline-overlap gate compares: the identical
// latency-injected campaign run through the streaming pipeline vs the
// pre-pipeline generate-then-score loop.
const (
	pipelinedBench   = "CampaignPipelined"
	interleavedBench = "CampaignInterleaved"
)

// benchLine matches e.g.
//
//	BenchmarkZeroShotSerial-8  1  537016704 ns/op  128 B/op  7 allocs/op  0.483 gpt4-unit-test
//
// The -8 suffix is GOMAXPROCS (absent when 1); under -cpu 1,4 the same
// benchmark emits one line per value, folded into one BenchResult.
var benchLine = regexp.MustCompile(`^Benchmark(\S+?)(?:-(\d+))?\s+(\d+)\s+([0-9.]+) ns/op(.*)$`)

func parseBench(r io.Reader) (map[string]BenchResult, error) {
	out := map[string]BenchResult{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[3], 10, 64)
		if err != nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[4], 64)
		if err != nil {
			continue
		}
		res := BenchResult{Iterations: iters, NsPerOp: ns}
		// The remainder alternates "value unit" pairs: -benchmem's
		// B/op and allocs/op columns plus any ReportMetric values.
		fields := strings.Fields(m[5])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "B/op":
				res.BytesPerOp = v
			case "allocs/op":
				res.AllocsPerOp = v
			default:
				if res.Metrics == nil {
					res.Metrics = map[string]float64{}
				}
				res.Metrics[fields[i+1]] = v
			}
		}
		cpu := m[2]
		if cpu == "" {
			cpu = "1"
		}
		// Later lines for the same name (higher -cpu values) take the
		// headline fields; ByCPU accumulates across them.
		if prev, ok := out[m[1]]; ok {
			if res.ByCPU == nil {
				res.ByCPU = prev.ByCPU
			}
		}
		if res.ByCPU == nil {
			res.ByCPU = map[string]float64{}
		}
		res.ByCPU[cpu] = ns
		out[m[1]] = res
	}
	return out, sc.Err()
}

func ratio(benchmarks map[string]BenchResult) (float64, error) {
	serial, ok := benchmarks["ZeroShotSerial"]
	if !ok {
		return 0, fmt.Errorf("ZeroShotSerial missing from bench output")
	}
	eng, ok := benchmarks["ZeroShotEngine"]
	if !ok {
		return 0, fmt.Errorf("ZeroShotEngine missing from bench output")
	}
	if serial.NsPerOp <= 0 {
		return 0, fmt.Errorf("ZeroShotSerial ns/op = %v", serial.NsPerOp)
	}
	return eng.NsPerOp / serial.NsPerOp, nil
}

// gates holds the regression thresholds; a zero (or negative) value
// disables the corresponding gate.
type gates struct {
	maxRegress         float64 // engine/serial ns ratio, percent over baseline
	maxAllocRegress    float64 // per-benchmark allocs/op, percent over baseline
	minColdSpeedup     float64 // ColdPathUnitTest ns vs baseline cold_unittest_pre_pr_ns
	minParallelScale   float64 // CampaignParallel 1-core ns vs 4-core ns
	minStoreScale      float64 // StoreAppendParallel 1-core ns vs 4-core ns
	minPipelineOverlap float64 // CampaignInterleaved ns vs CampaignPipelined ns
	loadgenPath        string  // cloudeval loadgen report to gate ("" disables)
	maxP99Ms           float64 // loadgen p99 latency ceiling in ms
	maxErrorRate       float64 // loadgen error-rate ceiling as a fraction; negative disables
}

func main() {
	in := flag.String("in", "", "bench output file (default stdin)")
	out := flag.String("out", "", "write the JSON artifact here")
	sha := flag.String("sha", "", "commit sha recorded in the artifact")
	baselinePath := flag.String("baseline", "", "checked-in baseline artifact to gate against")
	var g gates
	flag.Float64Var(&g.maxRegress, "max-regress", 20, "fail when the engine/serial ratio regresses more than this percent over baseline (0 disables)")
	flag.Float64Var(&g.maxAllocRegress, "max-alloc-regress", 15, "fail when any benchmark's allocs/op regresses more than this percent over its baseline (0 disables)")
	flag.Float64Var(&g.minColdSpeedup, "min-cold-speedup", 2, "fail when ColdPathUnitTest ns/op is not at least this factor below the baseline's cold_unittest_pre_pr_ns (0 disables)")
	flag.Float64Var(&g.minParallelScale, "min-parallel-speedup", 2.5, "fail when CampaignParallel at 4 cores is not at least this factor faster than at 1 core (0 disables; skipped on machines with fewer than 4 CPUs)")
	flag.Float64Var(&g.minStoreScale, "min-store-speedup", 0, "fail when StoreAppendParallel at 4 cores is not at least this factor faster than at 1 core (0 disables; skipped on machines with fewer than 4 CPUs)")
	flag.Float64Var(&g.minPipelineOverlap, "min-pipeline-overlap", 0, "fail when CampaignPipelined is not at least this factor faster than CampaignInterleaved in the same run (0 disables; skipped on machines with fewer than 4 CPUs)")
	flag.StringVar(&g.loadgenPath, "loadgen", "", "cloudeval loadgen report JSON to gate and fold into the artifact")
	flag.Float64Var(&g.maxP99Ms, "max-p99-ms", 0, "fail when the loadgen report's p99 latency exceeds this many milliseconds (0 disables; skipped on machines with fewer than 4 CPUs)")
	flag.Float64Var(&g.maxErrorRate, "max-error-rate", -1, "fail when the loadgen report's error rate exceeds this fraction (negative disables; 0 means no errors tolerated)")
	flag.Parse()
	if err := run(*in, *out, *sha, *baselinePath, g); err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(1)
	}
}

func run(in, out, sha, baselinePath string, g gates) error {
	var r io.Reader = os.Stdin
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	benchmarks, err := parseBench(r)
	if err != nil {
		return err
	}
	if len(benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines found")
	}
	art := Artifact{Sha: sha, Benchmarks: benchmarks}
	if rat, err := ratio(benchmarks); err == nil {
		art.EngineVsSerial = rat
	}
	if scale, ok := parallelScale(benchmarks); ok {
		art.CampaignParallelScaling = scale
	}
	if scale, ok := storeScale(benchmarks); ok {
		art.StoreAppendParallelScaling = scale
	}
	if overlap, ok := pipelineOverlap(benchmarks); ok {
		art.PipelineOverlap = overlap
	}

	// The baseline is loaded before the artifact is written only so the
	// historical cold_unittest_pre_pr_ns can be carried into the
	// artifact (it is a constant, not a measurement of this run). A
	// missing or corrupt baseline must NOT suppress the artifact — CI
	// uploads it with if: always() precisely because failed runs are
	// when the measurements matter — so baseline errors are held until
	// after the write.
	var baseline Artifact
	var baselineErr error
	if baselinePath != "" {
		if data, err := os.ReadFile(baselinePath); err != nil {
			baselineErr = fmt.Errorf("read baseline: %w", err)
		} else if err := json.Unmarshal(data, &baseline); err != nil {
			baselineErr = fmt.Errorf("parse baseline: %w", err)
		} else {
			art.ColdPrePRNs = baseline.ColdPrePRNs
			art.GenerateBatchedMaxAllocs = baseline.GenerateBatchedMaxAllocs
			art.StoreColdGetMaxAllocs = baseline.StoreColdGetMaxAllocs
			art.ScoreAnswerMaxAllocs = baseline.ScoreAnswerMaxAllocs
		}
	}

	// The loadgen report joins the artifact before the write for the
	// same reason the baseline constants do; like baseline errors, a
	// missing or corrupt report must not suppress the artifact.
	var lgErr error
	if g.loadgenPath != "" {
		rep, err := readLoadgenReport(g.loadgenPath)
		if err != nil {
			lgErr = err
		} else {
			art.Loadgen = &rep
		}
	}

	if out != "" {
		data, err := json.MarshalIndent(art, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("benchguard: wrote %s (%d benchmarks)\n", out, len(benchmarks))
	}

	if lgErr != nil {
		return lgErr
	}
	if art.Loadgen != nil {
		if err := gateLoadgenLatency(*art.Loadgen, g.maxP99Ms, runtime.NumCPU()); err != nil {
			return err
		}
		if err := gateLoadgenErrors(*art.Loadgen, g.maxErrorRate); err != nil {
			return err
		}
	}

	if baselinePath == "" {
		return nil
	}
	if baselineErr != nil {
		return baselineErr
	}

	if err := gateEngineRatio(benchmarks, baseline, g.maxRegress); err != nil {
		return err
	}
	if err := gateAllocs(benchmarks, baseline, g.maxAllocRegress); err != nil {
		return err
	}
	if err := gateAllocCap(benchmarks, baseline); err != nil {
		return err
	}
	if err := gateParallelScale(benchmarks, g.minParallelScale); err != nil {
		return err
	}
	if err := gateStoreScale(benchmarks, g.minStoreScale); err != nil {
		return err
	}
	if err := gatePipelineOverlap(benchmarks, g.minPipelineOverlap); err != nil {
		return err
	}
	if err := gateColdGetAllocCap(benchmarks, baseline); err != nil {
		return err
	}
	if err := gateScoreAnswerAllocCap(benchmarks, baseline); err != nil {
		return err
	}
	return gateColdSpeedup(benchmarks, baseline, g.minColdSpeedup)
}

// readLoadgenReport parses a `cloudeval loadgen -out` artifact.
func readLoadgenReport(path string) (loadgen.Report, error) {
	var rep loadgen.Report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, fmt.Errorf("read loadgen report: %w", err)
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("parse loadgen report: %w", err)
	}
	if rep.Requests <= 0 {
		return rep, fmt.Errorf("loadgen report %s records no requests", path)
	}
	return rep, nil
}

// gateLoadgenLatency enforces the service-tier p99 ceiling. Latency on
// a starved runner measures the runner, not the server, so like the
// parallel gate it announces itself skipped (rather than passing
// silently) on machines with fewer than 4 CPUs. cpus is a parameter so
// tests can exercise the enforcement path regardless of the host.
func gateLoadgenLatency(rep loadgen.Report, maxP99Ms float64, cpus int) error {
	if maxP99Ms <= 0 {
		return nil
	}
	if cpus < 4 {
		fmt.Printf("benchguard: service p99 gate skipped: %d CPUs (< 4) make HTTP-path latency runner noise\n", cpus)
		return nil
	}
	fmt.Printf("benchguard: service p99 %.2fms over %d requests (ceiling %.0fms)\n",
		rep.LatencyMs.P99, rep.Requests, maxP99Ms)
	if rep.LatencyMs.P99 > maxP99Ms {
		return fmt.Errorf("service latency regressed: loadgen p99 %.2fms exceeds the %.0fms ceiling (p50 %.2fms, throughput %.1f req/s)",
			rep.LatencyMs.P99, maxP99Ms, rep.LatencyMs.P50, rep.ThroughputQPS)
	}
	return nil
}

// gateLoadgenErrors enforces the service-tier error-rate ceiling.
// Error classification is deterministic, so this gate never skips; a
// ceiling of exactly 0 means no failed requests tolerated.
func gateLoadgenErrors(rep loadgen.Report, maxErrorRate float64) error {
	if maxErrorRate < 0 {
		return nil
	}
	fmt.Printf("benchguard: service error rate %.4f over %d requests (ceiling %.4f)\n",
		rep.ErrorRate, rep.Requests, maxErrorRate)
	if rep.ErrorRate > maxErrorRate {
		classes := make([]string, 0, len(rep.Errors))
		for class, n := range rep.Errors {
			classes = append(classes, fmt.Sprintf("%s=%d", class, n))
		}
		sort.Strings(classes)
		return fmt.Errorf("service error rate %.4f exceeds the %.4f ceiling (%s)",
			rep.ErrorRate, maxErrorRate, strings.Join(classes, " "))
	}
	return nil
}

// cpuScale computes a benchmark's 1-core / 4-core ns ratio when the
// run recorded both -cpu points.
func cpuScale(benchmarks map[string]BenchResult, name string) (float64, bool) {
	cur, ok := benchmarks[name]
	if !ok {
		return 0, false
	}
	one, four := cur.ByCPU["1"], cur.ByCPU["4"]
	if one <= 0 || four <= 0 {
		return 0, false
	}
	return one / four, true
}

// parallelScale computes CampaignParallel's 1-core / 4-core ns ratio
// when the run recorded both -cpu points.
func parallelScale(benchmarks map[string]BenchResult) (float64, bool) {
	return cpuScale(benchmarks, parallelBench)
}

// storeScale computes StoreAppendParallel's 1-core / 4-core ns ratio
// when the run recorded both -cpu points.
func storeScale(benchmarks map[string]BenchResult) (float64, bool) {
	return cpuScale(benchmarks, storeBench)
}

// gateParallelScale enforces lock behavior: the 4-core CampaignParallel
// run must beat the 1-core run by at least minScale even when
// single-thread ns/op is flat. The gate needs real cores to mean
// anything, so it announces itself skipped (rather than passing
// silently) on machines with fewer than 4 CPUs — including the
// single-core box the committed baseline was recorded on.
func gateParallelScale(benchmarks map[string]BenchResult, minScale float64) error {
	if minScale <= 0 {
		return nil
	}
	if runtime.NumCPU() < 4 {
		fmt.Printf("benchguard: parallel-scaling gate skipped: %d CPUs (< 4) cannot exercise -cpu 4\n", runtime.NumCPU())
		return nil
	}
	scale, ok := parallelScale(benchmarks)
	if !ok {
		return fmt.Errorf("%s missing -cpu 1,4 measurements (parallel gate active)", parallelBench)
	}
	fmt.Printf("benchguard: %s 4-core speedup %.2fx over 1-core (required %.1fx)\n",
		parallelBench, scale, minScale)
	if scale < minScale {
		return fmt.Errorf("parallel scaling regressed: %s runs only %.2fx faster at 4 cores (need %.1fx) — a shared lock is serializing the campaign",
			parallelBench, scale, minScale)
	}
	return nil
}

// gateStoreScale enforces the sharded store's write-path scaling: the
// 4-core StoreAppendParallel run must beat the 1-core run by at least
// minScale. A collapse back to 1x means every writer is serializing on
// one lock again instead of its shard's own — the exact contention
// sharding removed. Like
// the campaign gate it announces itself skipped (rather than passing
// silently) on machines with fewer than 4 CPUs.
func gateStoreScale(benchmarks map[string]BenchResult, minScale float64) error {
	if minScale <= 0 {
		return nil
	}
	if runtime.NumCPU() < 4 {
		fmt.Printf("benchguard: store-scaling gate skipped: %d CPUs (< 4) cannot exercise -cpu 4\n", runtime.NumCPU())
		return nil
	}
	scale, ok := storeScale(benchmarks)
	if !ok {
		return fmt.Errorf("%s missing -cpu 1,4 measurements (store gate active)", storeBench)
	}
	fmt.Printf("benchguard: %s 4-core speedup %.2fx over 1-core (required %.1fx)\n",
		storeBench, scale, minScale)
	if scale < minScale {
		return fmt.Errorf("store scaling regressed: %s runs only %.2fx faster at 4 cores (need %.1fx) — appends are serializing on a lock shared across shards",
			storeBench, scale, minScale)
	}
	return nil
}

// pipelineOverlap computes CampaignInterleaved ns/op over
// CampaignPipelined ns/op when both ran. When a run recorded a 4-core
// -cpu point for both, the ratio is taken there — that is where the
// execution stage has real workers to overlap with — otherwise the
// headline ns/op is used.
func pipelineOverlap(benchmarks map[string]BenchResult) (float64, bool) {
	pipe, okPipe := benchmarks[pipelinedBench]
	inter, okInter := benchmarks[interleavedBench]
	if !okPipe || !okInter {
		return 0, false
	}
	pipeNs, interNs := pipe.NsPerOp, inter.NsPerOp
	if p, i := pipe.ByCPU["4"], inter.ByCPU["4"]; p > 0 && i > 0 {
		pipeNs, interNs = p, i
	}
	if pipeNs <= 0 || interNs <= 0 {
		return 0, false
	}
	return interNs / pipeNs, true
}

// gatePipelineOverlap enforces the streaming pipeline's reason to
// exist: the latency-injected campaign must finish at least minOverlap
// times faster pipelined than interleaved. Both benchmarks come from
// the same run on the same machine, so the ratio is hardware-
// independent — but with fewer than 4 CPUs the execution stage has no
// parallelism for generation to overlap with, so like the parallel
// gates it announces itself skipped rather than passing silently.
func gatePipelineOverlap(benchmarks map[string]BenchResult, minOverlap float64) error {
	if minOverlap <= 0 {
		return nil
	}
	if runtime.NumCPU() < 4 {
		fmt.Printf("benchguard: pipeline-overlap gate skipped: %d CPUs (< 4) leave the execution stage nothing to overlap with\n", runtime.NumCPU())
		return nil
	}
	overlap, ok := pipelineOverlap(benchmarks)
	if !ok {
		return fmt.Errorf("%s/%s missing from bench output (pipeline-overlap gate active)", pipelinedBench, interleavedBench)
	}
	fmt.Printf("benchguard: pipelined campaign %.2fx faster than interleaved (required %.2fx)\n",
		overlap, minOverlap)
	if overlap < minOverlap {
		return fmt.Errorf("pipeline overlap regressed: the pipelined campaign is only %.2fx faster than the interleaved baseline (need %.2fx) — provider latency is being paid in sequence with execution again",
			overlap, minOverlap)
	}
	return nil
}

// gateHardAllocCap enforces a hard allocs/op ceiling the baseline
// records for one benchmark. It is active whenever the baseline holds
// the cap and the run measured the benchmark; there is no flag, because
// a hard cap that can be flag-disabled in CI is not a hard cap. why
// says what a breach means.
func gateHardAllocCap(benchmarks map[string]BenchResult, bench string, cap float64, why string) error {
	if cap <= 0 {
		return nil
	}
	cur, ok := benchmarks[bench]
	if !ok || cur.AllocsPerOp <= 0 {
		return nil // not measured this run (e.g. a bench subset)
	}
	fmt.Printf("benchguard: %s allocs/op %.0f (hard cap %.0f)\n", bench, cur.AllocsPerOp, cap)
	if cur.AllocsPerOp > cap {
		return fmt.Errorf("%s allocations exceed the hard cap: %.0f allocs/op > %.0f — %s",
			bench, cur.AllocsPerOp, cap, why)
	}
	return nil
}

// gateColdGetAllocCap caps StoreColdGet — the uncached pread + verify +
// decode path — at the baseline's store_cold_get_max_allocs.
func gateColdGetAllocCap(benchmarks map[string]BenchResult, baseline Artifact) error {
	return gateHardAllocCap(benchmarks, coldGetBench, baseline.StoreColdGetMaxAllocs,
		"the cold-read path is growing per-Get garbage")
}

// gateAllocCap caps GenerateBatched at the baseline's
// generate_batched_max_allocs.
func gateAllocCap(benchmarks map[string]BenchResult, baseline Artifact) error {
	return gateHardAllocCap(benchmarks, allocCapBench, baseline.GenerateBatchedMaxAllocs,
		"the cap is 50% of the pre-diet 71,015 and does not move with baseline re-records")
}

// gateScoreAnswerAllocCap caps ScoreAnswer — one Evaluator.Score call
// on a warm engine — at the baseline's score_answer_max_allocs.
func gateScoreAnswerAllocCap(benchmarks map[string]BenchResult, baseline Artifact) error {
	return gateHardAllocCap(benchmarks, scoreAnswerBench, baseline.ScoreAnswerMaxAllocs,
		"the inline metrics are building per-answer strings, maps or slices again instead of streaming over the compiled reference")
}

func gateEngineRatio(benchmarks map[string]BenchResult, baseline Artifact, maxRegress float64) error {
	if maxRegress <= 0 {
		return nil
	}
	baseRatio := baseline.EngineVsSerial
	if baseRatio <= 0 {
		var err error
		baseRatio, err = ratio(baseline.Benchmarks)
		if err != nil {
			return fmt.Errorf("baseline: %w", err)
		}
	}
	curRatio, err := ratio(benchmarks)
	if err != nil {
		return err
	}
	limit := baseRatio * (1 + maxRegress/100)
	fmt.Printf("benchguard: engine/serial ns ratio %.4f (baseline %.4f, limit %.4f)\n",
		curRatio, baseRatio, limit)
	if curRatio > limit {
		return fmt.Errorf("engine path regressed: ratio %.4f exceeds baseline %.4f by more than %.0f%%",
			curRatio, baseRatio, maxRegress)
	}
	return nil
}

// gateAllocs compares allocs/op for every benchmark present in both
// the current run and the baseline. Only benchmarks whose baseline
// records a nonzero allocs/op participate, so adding a new benchmark
// never trips the gate until a baseline for it is checked in.
func gateAllocs(benchmarks map[string]BenchResult, baseline Artifact, maxAllocRegress float64) error {
	if maxAllocRegress <= 0 {
		return nil
	}
	var failures []string
	for name, base := range baseline.Benchmarks {
		if base.AllocsPerOp <= 0 {
			continue
		}
		cur, ok := benchmarks[name]
		if !ok || cur.AllocsPerOp <= 0 {
			continue
		}
		limit := base.AllocsPerOp * (1 + maxAllocRegress/100)
		fmt.Printf("benchguard: %s allocs/op %.0f (baseline %.0f, limit %.0f)\n",
			name, cur.AllocsPerOp, base.AllocsPerOp, limit)
		if cur.AllocsPerOp > limit {
			failures = append(failures,
				fmt.Sprintf("%s: %.0f allocs/op exceeds baseline %.0f by more than %.0f%%",
					name, cur.AllocsPerOp, base.AllocsPerOp, maxAllocRegress))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("allocation regressions:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

// gateColdSpeedup enforces the cold-path headline: the current
// ColdPathUnitTest ns/op must be at least minSpeedup times below the
// pre-optimization cost the baseline records.
func gateColdSpeedup(benchmarks map[string]BenchResult, baseline Artifact, minSpeedup float64) error {
	if minSpeedup <= 0 || baseline.ColdPrePRNs <= 0 {
		return nil
	}
	cur, ok := benchmarks[coldBench]
	if !ok {
		return fmt.Errorf("%s missing from bench output (cold gate active)", coldBench)
	}
	if cur.NsPerOp <= 0 {
		return fmt.Errorf("%s ns/op = %v", coldBench, cur.NsPerOp)
	}
	speedup := baseline.ColdPrePRNs / cur.NsPerOp
	fmt.Printf("benchguard: cold path %.0f ns/op, %.2fx over pre-PR %.0f ns (required %.1fx)\n",
		cur.NsPerOp, speedup, baseline.ColdPrePRNs, minSpeedup)
	if speedup < minSpeedup {
		return fmt.Errorf("cold path regressed: %.0f ns/op is only %.2fx over the pre-PR %.0f ns baseline (need %.1fx)",
			cur.NsPerOp, speedup, baseline.ColdPrePRNs, minSpeedup)
	}
	return nil
}
