package main

import (
	"encoding/json"
	"os"
	"path/filepath"
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
	// -benchmem columns land in dedicated fields, not the metric map;
	// without them allocs/op is absent, not zero.
	cold := got["ColdPathUnitTest"]
	if cold.BytesPerOp != 13870 || cold.AllocsPerOp == nil || *cold.AllocsPerOp != 227 || eng.AllocsPerOp != nil {
		t.Errorf("ColdPathUnitTest = %+v, ZeroShotEngine = %+v", cold, eng)
	}
	if _, ok := cold.Metrics["B/op"]; ok {
		t.Error("B/op leaked into the metric map")
	}
	// Repeats keep their highest B/op as well as their highest allocs.
	if eng := mustParse(repeatSample)["ZeroShotEngine"]; eng.BytesPerOp != 7348112 || eng.Metrics["cache-hits"] != 7459 {
		t.Errorf("repeated ZeroShotEngine = %+v, want the highest B/op 7348112", eng)
	}
}

// full is one run of every benchmark a row reads, with -cpu 1,4 points
// where a row needs both: CampaignParallel scales 3.2x,
// StoreAppendParallel 2x, and the pipelined campaign is 8x faster than
// the interleaved one at 4 cores (20x at 1 core).
const full = sample + `BenchmarkGenerateBatched-4   	      50	    590000 ns/op	   89860 B/op	     278 allocs/op
BenchmarkStoreColdGet-4      	  200000	      6500 ns/op	     824 B/op	       1 allocs/op
BenchmarkScoreAnswer-4       	   13195	     21000 ns/op	     712 B/op	       1 allocs/op
BenchmarkCampaignParallel    	       3	 320000000 ns/op	 4000000 B/op	   20000 allocs/op
BenchmarkCampaignParallel-4  	       4	 100000000 ns/op	 4100000 B/op	   20500 allocs/op
BenchmarkStoreAppendParallel    	    1000	     30000 ns/op	         8.000 frames-per-flush
BenchmarkStoreAppendParallel-4  	    4000	     15000 ns/op	        24.00 frames-per-flush
BenchmarkCampaignPipelined      	       5	 200000000 ns/op	        64.00 peak-gen-inflight
BenchmarkCampaignPipelined-4    	      10	 150000000 ns/op	        64.00 peak-gen-inflight
BenchmarkCampaignInterleaved    	       1	4000000000 ns/op
BenchmarkCampaignInterleaved-4  	       1	1200000000 ns/op
`

// repeatSample is -count 5 of the engine-ratio pair, with the serial
// run's slowest repeat last, -count 3 of Table4ZeroShot, whose first
// repeat runs cold and the rest warm, and -count 2 -cpu 1,4 of
// CampaignParallel, whose highest allocs/op at 4 cores is its last.
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
BenchmarkCampaignParallel-4  	       4	 100000000 ns/op	 4100000 B/op	   20400 allocs/op
BenchmarkCampaignParallel-4  	       4	 120000000 ns/op	 4100000 B/op	   20500 allocs/op
PASS
`

func mustParse(text string) map[string]BenchResult {
	benchmarks, err := parseBench(strings.NewReader(text))
	if err != nil {
		panic(err)
	}
	return benchmarks
}

// baseline renders bench output as a baseline file.
func baseline(text string) string {
	data, err := json.Marshal(Artifact{Sha: "baseline", Benchmarks: mustParse(text)})
	if err != nil {
		panic(err)
	}
	return string(data)
}

// report renders a loadgen report with the given p99, error rate and
// error classes.
func report(p99, errorRate float64, errs map[string]int) string {
	data, err := json.Marshal(loadgen.Report{
		Target: "http://127.0.0.1:1", Requests: 200, Concurrency: 8,
		DurationSec: 2, ThroughputQPS: 100,
		LatencyMs: loadgen.Latency{P50: 3, P95: 12, P99: p99, Mean: 5, Max: p99 + 15},
		ErrorRate: errorRate, Errors: errs,
	})
	if err != nil {
		panic(err)
	}
	return string(data)
}

// TestGates runs every row through run(): each case's log or error must
// hold its lines, the run must fail exactly when a row or an input
// fails, and the artifact is written whatever the verdict (CI uploads it
// with if: always()).
func TestGates(t *testing.T) {
	healthy := report(40, 0, nil)
	edit := func(s string, oldnew ...string) string { return strings.NewReplacer(oldnew...).Replace(s) }
	cases := []struct {
		name     string
		bench    string
		base, lg string // file contents; "" passes no flag
		cpus     int
		fail     bool
		want     []string // lines the log or the error must hold
	}{
		// The baseline's ScoreAnswer allocates nothing, so it has no
		// relative row, and the run's one allocation passes.
		{name: "pass", bench: full, base: baseline(edit(full, "712 B/op	       1 allocs/op", "712 B/op	       0 allocs/op")), lg: healthy, cpus: 4, want: []string{
			"pass engine-ratio 0.3 (needs ≤ 0.36 = 1.2 × baseline 0.3)",
			"pass cold-speedup 3.99248 (needs ≥ 2)",
			"pass allocs-cap GenerateBatched 278 (needs ≤ 560)",
			"pass allocs-cap StoreColdGet 1 (needs ≤ 4)",
			"pass allocs-cap ScoreAnswer 1 (needs ≤ 8)",
			"pass campaign-scaling 3.2 (needs ≥ 2.5)",
			"pass store-scaling 2 (needs ≥ 1.5)",
			"pass pipeline-overlap 8 (needs ≥ 1.54)",
			"pass loadgen-p99-ms 40 (needs ≤ 500)",
			"pass loadgen-error-rate 0 (needs ≤ 0.01)",
			"pass allocs ColdPathUnitTest 227 (needs ≤ 261.05 = 1.15 × baseline 227)",
		}},
		{name: "loud skip below 4 CPUs", cpus: 2, base: baseline(full), lg: report(600, 0, nil),
			bench: edit(full, " 100000000 ns/op", " 200000000 ns/op", "     15000 ns/op", "     25000 ns/op", " 150000000 ns/op", " 1000000000 ns/op"),
			want: []string{
				"skip campaign-scaling: 2 CPUs, needs 4",
				"skip store-scaling: 2 CPUs, needs 4",
				"skip pipeline-overlap: 2 CPUs, needs 4",
				"skip loadgen-p99-ms: 2 CPUs, needs 4",
			}},
		{name: "scaling regressions", cpus: 4, base: baseline(full), lg: healthy, fail: true,
			bench: edit(full, " 100000000 ns/op", " 200000000 ns/op", "     15000 ns/op", "     25000 ns/op", " 150000000 ns/op", " 1000000000 ns/op"),
			want: []string{
				"FAIL campaign-scaling 1.6 (needs ≥ 2.5): a shared lock is serializing the campaign",
				"FAIL store-scaling 1.2 (needs ≥ 1.5): appends are serializing on a lock shared across shards",
				"FAIL pipeline-overlap 1.2 (needs ≥ 1.54): provider latency is paid in sequence with execution again",
			}},
		{name: "engine ratio regression", bench: full, lg: healthy, cpus: 2, fail: true,
			base: baseline(edit(full, " 900000000 ns/op", " 450000000 ns/op")),
			want: []string{"FAIL engine-ratio 0.3 (needs ≤ 0.18 = 1.2 × baseline 0.15)"}},
		{name: "allocs regression", bench: full, lg: healthy, cpus: 2, fail: true,
			base: baseline(edit(full, "     227 allocs/op", "     100 allocs/op")),
			want: []string{"FAIL allocs ColdPathUnitTest 227 (needs ≤ 115 = 1.15 × baseline 100)"}},
		{name: "hard caps and cold speedup", base: baseline(full), lg: healthy, cpus: 2, fail: true,
			bench: edit(full, "     278 allocs/op", "     600 allocs/op", "       1 allocs/op", "      11 allocs/op", "     25000 ns/op", "     60000 ns/op"),
			want: []string{
				"FAIL allocs-cap GenerateBatched 600 (needs ≤ 560)",
				"FAIL allocs-cap StoreColdGet 11 (needs ≤ 4)",
				"FAIL allocs-cap ScoreAnswer 11 (needs ≤ 8)",
				"FAIL cold-speedup 1.66353 (needs ≥ 2)",
			}},
		{name: "loadgen regressions", bench: full, base: baseline(full), cpus: 4, fail: true,
			lg: report(600, 0.05, map[string]int{"rate_limited": 8, "http_500": 2}),
			want: []string{
				"loadgen errors http_500=2 rate_limited=8",
				"FAIL loadgen-p99-ms 600 (needs ≤ 500)",
				"FAIL loadgen-error-rate 0.05 (needs ≤ 0.01)",
			}},
		{name: "missing inputs", bench: edit(sample, "-8 ", "-4 ") + "BenchmarkCampaignParallel 3 320000000 ns/op\nBenchmarkStoreColdGet-4 200000 6500 ns/op\n",
			base: baseline(full), cpus: 4, fail: true, want: []string{
				"FAIL allocs-cap StoreColdGet: StoreColdGet has no allocs/op (run without -benchmem)",
				"FAIL allocs-cap ScoreAnswer: ScoreAnswer missing",
				"FAIL campaign-scaling: CampaignParallel missing -cpu 1,4 measurements",
				"FAIL pipeline-overlap: CampaignInterleaved missing",
				"FAIL loadgen-p99-ms: no loadgen report",
				"FAIL loadgen-error-rate: no loadgen report",
				"FAIL allocs GenerateBatched: GenerateBatched missing",
				"pass allocs ColdPathUnitTest 227 (needs ≤ 261.05 = 1.15 × baseline 227)",
			}},
		{name: "no baseline", bench: full, lg: healthy, cpus: 2, fail: true,
			want: []string{"FAIL engine-ratio: baseline: ZeroShotEngine missing"}},
		{name: "bad baseline", bench: full, base: "{not json", lg: healthy, cpus: 2, fail: true,
			want: []string{"baseline: invalid character"}},
		{name: "corrupt loadgen report", bench: full, base: baseline(full), lg: "{not json", cpus: 2, fail: true,
			want: []string{"loadgen report: invalid character", "FAIL loadgen-error-rate: no loadgen report"}},
		// Repeats fold into their median ns/op, so one slow repeat moves
		// neither side of the engine ratio (2.6e8 / 2.75e9), and into
		// their highest allocs/op, so Table4ZeroShot's cold first repeat
		// stays under its row. Each -cpu point folds on its own, an even
		// count to the mean of its middle two (3.4e8 / 1.1e8), and the
		// headline allocs/op is the -4 lines' highest, not the 1-core 21000.
		{name: "repeats", bench: repeatSample, base: baseline(repeatSample), lg: healthy, cpus: 4, fail: true, want: []string{
			"pass engine-ratio 0.0945455 (needs ≤ 0.113455 = 1.2 × baseline 0.0945455)",
			"pass allocs Table4ZeroShot 530112 (needs ≤ 609629 = 1.15 × baseline 530112)",
			"pass allocs ZeroShotEngine 49090 (needs ≤ 56453.5 = 1.15 × baseline 49090)",
			"pass campaign-scaling 3.09091 (needs ≥ 2.5)",
			"pass allocs CampaignParallel 20500 (needs ≤ 23575 = 1.15 × baseline 20500)",
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			write := func(name, text string) string {
				if text == "" {
					return ""
				}
				path := filepath.Join(dir, name)
				if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
					t.Fatal(err)
				}
				return path
			}
			out := filepath.Join(dir, "BENCH_sha.json")
			var log strings.Builder
			err := run(&log, write("bench.txt", tc.bench), out, "sha", write("baseline.json", tc.base), write("loadgen.json", tc.lg), tc.cpus)
			if (err != nil) != tc.fail {
				t.Errorf("run() = %v, want failure %v\n%s", err, tc.fail, log.String())
			}
			got := log.String()
			if err != nil {
				got += err.Error()
			}
			for _, want := range tc.want {
				if !strings.Contains(got, want) {
					t.Errorf("log and error lack %q:\n%s", want, got)
				}
			}
			data, err := os.ReadFile(out)
			if err != nil {
				t.Fatalf("artifact not written: %v", err)
			}
			var art Artifact
			if err := json.Unmarshal(data, &art); err != nil || art.Sha != "sha" || len(art.Benchmarks) != len(mustParse(tc.bench)) {
				t.Errorf("artifact = %.200s, %v", data, err)
			}
			var rep loadgen.Report
			folded := json.Unmarshal([]byte(tc.lg), &rep) == nil && rep.Requests > 0
			if (art.Loadgen != nil) != folded || folded && art.Loadgen.LatencyMs.P99 != rep.LatencyMs.P99 {
				t.Errorf("artifact loadgen = %+v, want the report folded in: %v", art.Loadgen, folded)
			}
		})
	}
}

// TestCommittedBaseline evaluates every row with ci/bench-baseline.json
// as both the run and the baseline on 2 CPUs: each row must pass, or
// skip for its core count. A hand edit that leaves the baseline
// unreadable or without a benchmark a row reads fails here.
func TestCommittedBaseline(t *testing.T) {
	var base Artifact
	if err := readJSON("../../ci/bench-baseline.json", &base); err != nil {
		t.Fatal(err)
	}
	var log strings.Builder
	rows := table(&base)
	if failed := gate(&log, rows, &base, &base, 2); failed > 0 {
		t.Errorf("the committed baseline fails its own gates:\n%s", log.String())
	}
	for _, r := range rows {
		verdict := "pass "
		if r.minCPUs > 2 {
			verdict = "skip "
		}
		if !strings.Contains(log.String(), "benchguard: "+verdict+r.name) {
			t.Errorf("row %s did not %s:\n%s", r.name, verdict, log.String())
		}
	}
}
