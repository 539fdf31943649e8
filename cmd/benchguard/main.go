// Command benchguard turns `go test -bench` output into a JSON
// benchmark artifact and holds it to the bench job's regression gates.
//
//	go test -bench 'ZeroShot' -benchmem -benchtime 1x -count 5 -run '^$' . | tee bench.txt
//	benchguard -in bench.txt -out BENCH_$SHA.json -sha $SHA \
//	    -baseline ci/bench-baseline.json -loadgen loadgen.json
//
// The artifact records ns/op, B/op, allocs/op and every ReportMetric
// value (cache hit counts, unit-tests-executed, ...) for each
// benchmark, and the loadgen report when one is given. Benchmarks run
// at several -cpu values fold into one entry whose ns_per_op_by_cpu
// map keeps each GOMAXPROCS point. The baseline has the same shape and
// holds measurements only.
//
// The gates are the rows of table. Each row measures one number from
// this run and compares it with a constant threshold; a relative row
// scales the threshold by the same number measured from the baseline's
// own benchmarks. A row needing more cores than the machine has is
// skipped and says so. A row whose input is missing (a benchmark not in
// the run or run without -benchmem, no loadgen report) fails and names
// it. Every row is evaluated and printed, after the artifact is
// written, and any failure exits 1.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"cloudeval/internal/loadgen"
)

// BenchResult is one benchmark's measurements. The lines of one name
// and GOMAXPROCS, one per -count repeat, fold into their median ns/op,
// which ByCPU records per GOMAXPROCS, and into their highest B/op and
// allocs/op, so a benchmark whose first repeat runs cold keeps that
// repeat's cost under the allocation rows. NsPerOp, BytesPerOp and
// AllocsPerOp are read at the last GOMAXPROCS parsed (the highest
// requested, matching go test's output order); AllocsPerOp is nil when
// the lines have no allocs/op column (a run without -benchmem), so a
// row reading it cannot take the absence for zero. Iterations and
// Metrics hold the last line.
type BenchResult struct {
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	ByCPU       map[string]float64 `json:"ns_per_op_by_cpu,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Artifact is the BENCH_<sha>.json schema; ci/bench-baseline.json uses
// the same shape, so re-recording the baseline is a plain overwrite.
type Artifact struct {
	Sha        string                 `json:"sha"`
	Benchmarks map[string]BenchResult `json:"benchmarks"`
	// Loadgen is the service-tier load report (-loadgen) folded in
	// verbatim, so one artifact carries both the micro-benchmarks and
	// the HTTP-path latency distribution of the same commit.
	Loadgen *loadgen.Report `json:"loadgen,omitempty"`
}

// A row is one regression gate.
type row struct {
	name string
	// measure reads the row's number from an artifact: the run's and,
	// for a relative row, the baseline's. Its error names what is
	// missing.
	measure  func(a *Artifact) (float64, error)
	atLeast  bool    // pass when the number is ≥ limit; otherwise when ≤
	limit    float64 // the constant threshold
	relative bool    // limit is a factor on the baseline's own number
	minCPUs  int     // below this many CPUs the row is skipped, loudly
	why      string  // what a failure means
}

// coldPreOverhaulNs is BenchmarkColdPathUnitTest's ns/op before the
// cold-path overhaul, the fixed cost the cold speedup is measured
// against.
const coldPreOverhaulNs = 99812

// table is the bench job's gates, plus one relative allocs/op row for
// every benchmark whose baseline records allocations. Allocation counts
// are deterministic and hardware-independent, so those rows and the
// hard caps are tight; a hard cap does not move when the baseline is
// re-recorded. The ratios of two benchmarks from one run cancel the
// runner's speed. The 1-to-4-core scalings, the pipeline overlap and
// loadgen p99 need real cores to mean anything.
func table(base *Artifact) []row {
	rows := []row{
		{name: "engine-ratio", measure: quotient("ZeroShotEngine", "ZeroShotSerial"), limit: 1.20, relative: true,
			why: "the engine campaign lost ground to the serial loop in the same run"},
		{name: "cold-speedup", measure: func(a *Artifact) (float64, error) {
			cold, err := ns(a, "ColdPathUnitTest")
			return coldPreOverhaulNs / cold, err
		}, atLeast: true, limit: 2,
			why: "one cold unit-test execution is no longer 2x below its pre-overhaul cost"},
		{name: "allocs-cap GenerateBatched", measure: allocs("GenerateBatched"), limit: 560,
			why: "generation builds more than one string per response again"},
		{name: "allocs-cap StoreColdGet", measure: allocs("StoreColdGet"), limit: 4,
			why: "the store's read path is growing per-Get garbage"},
		{name: "allocs-cap ScoreAnswer", measure: allocs("ScoreAnswer"), limit: 8,
			why: "the inline metrics build per-answer strings, maps or slices again"},
		{name: "campaign-scaling", measure: scaling("CampaignParallel"), atLeast: true, limit: 2.5, minCPUs: 4,
			why: "a shared lock is serializing the campaign"},
		{name: "store-scaling", measure: scaling("StoreAppendParallel"), atLeast: true, limit: 1.5, minCPUs: 4,
			why: "appends are serializing on a lock shared across shards"},
		{name: "pipeline-overlap", measure: quotient("CampaignInterleaved", "CampaignPipelined"), atLeast: true, limit: 1.54, minCPUs: 4,
			why: "provider latency is paid in sequence with execution again"},
		{name: "loadgen-p99-ms", measure: func(a *Artifact) (float64, error) {
			if a.Loadgen == nil {
				return 0, errors.New("no loadgen report")
			}
			return a.Loadgen.LatencyMs.P99, nil
		}, limit: 500, minCPUs: 4,
			why: "a handler is serialized or re-evaluates per request"},
		{name: "loadgen-error-rate", measure: func(a *Artifact) (float64, error) {
			if a.Loadgen == nil {
				return 0, errors.New("no loadgen report")
			}
			return a.Loadgen.ErrorRate, nil
		}, limit: 0.01,
			why: "the service failed requests; the loadgen errors line names the classes"},
	}
	names := make([]string, 0, len(base.Benchmarks))
	for name, b := range base.Benchmarks {
		if b.AllocsPerOp != nil && *b.AllocsPerOp > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		rows = append(rows, row{name: "allocs " + name, measure: allocs(name), limit: 1.15, relative: true,
			why: "allocs/op grew more than 15% over the baseline"})
	}
	return rows
}

// ns reads a benchmark's median ns/op at the last -cpu point run.
func ns(a *Artifact, name string) (float64, error) {
	b, ok := a.Benchmarks[name]
	if !ok {
		return 0, fmt.Errorf("%s missing", name)
	}
	if b.NsPerOp <= 0 {
		return 0, fmt.Errorf("%s ns/op = %v", name, b.NsPerOp)
	}
	return b.NsPerOp, nil
}

// quotient measures one benchmark's ns/op over another's.
func quotient(num, den string) func(a *Artifact) (float64, error) {
	return func(a *Artifact) (float64, error) {
		n, err := ns(a, num)
		if err != nil {
			return 0, err
		}
		d, err := ns(a, den)
		return n / d, err
	}
}

// allocs measures a benchmark's allocs/op.
func allocs(name string) func(a *Artifact) (float64, error) {
	return func(a *Artifact) (float64, error) {
		b, ok := a.Benchmarks[name]
		if !ok {
			return 0, fmt.Errorf("%s missing", name)
		}
		if b.AllocsPerOp == nil {
			return 0, fmt.Errorf("%s has no allocs/op (run without -benchmem)", name)
		}
		return *b.AllocsPerOp, nil
	}
}

// scaling measures a benchmark's 1-core ns/op over its 4-core ns/op.
func scaling(name string) func(a *Artifact) (float64, error) {
	return func(a *Artifact) (float64, error) {
		one, four := a.Benchmarks[name].ByCPU["1"], a.Benchmarks[name].ByCPU["4"]
		if one <= 0 || four <= 0 {
			return 0, fmt.Errorf("%s missing -cpu 1,4 measurements", name)
		}
		return one / four, nil
	}
}

// gate evaluates every row on the run, prints one line per row to w
// and returns how many rows failed.
func gate(w io.Writer, rows []row, run, base *Artifact, cpus int) (failed int) {
	for _, r := range rows {
		if cpus < r.minCPUs {
			fmt.Fprintf(w, "benchguard: skip %s: %d CPUs, needs %d\n", r.name, cpus, r.minCPUs)
			continue
		}
		v, err := r.measure(run)
		limit, of := r.limit, ""
		if err == nil && r.relative {
			var b float64
			if b, err = r.measure(base); err != nil {
				err = fmt.Errorf("baseline: %w", err)
			}
			limit *= b
			of = " = " + num(r.limit) + " × baseline " + num(b)
		}
		op, pass := "≤", err == nil && v <= limit
		if r.atLeast {
			op, pass = "≥", err == nil && v >= limit
		}
		line := fmt.Sprintf("%s %s (needs %s %s%s)", r.name, num(v), op, num(limit), of)
		switch {
		case err != nil:
			line = "FAIL " + r.name + ": " + err.Error()
		case pass:
			line = "pass " + line
		default:
			line = "FAIL " + line + ": " + r.why
		}
		if !pass {
			failed++
		}
		fmt.Fprintln(w, "benchguard:", line)
	}
	return failed
}

// num prints v without an exponent: whole, or to six significant
// digits.
func num(v float64) string {
	if v != math.Trunc(v) {
		v, _ = strconv.ParseFloat(strconv.FormatFloat(v, 'g', 6, 64), 64)
	}
	return strconv.FormatFloat(v, 'f', -1, 64)
}

// benchLine matches e.g.
//
//	BenchmarkZeroShotSerial-8  1  537016704 ns/op  128 B/op  7 allocs/op  0.483 gpt4-unit-test
//
// The -8 suffix is GOMAXPROCS (absent when 1); under -cpu 1,4 or
// -count 5 the same benchmark emits one line per value and repeat,
// folded into one BenchResult.
var benchLine = regexp.MustCompile(`^Benchmark(\S+?)(?:-(\d+))?\s+(\d+)\s+([0-9.]+) ns/op(.*)$`)

func parseBench(r io.Reader) (map[string]BenchResult, error) {
	out := map[string]BenchResult{}
	// folds holds every repeat of a name, by GOMAXPROCS; lastCPU is the
	// GOMAXPROCS of the name's last line.
	type fold struct {
		ns     []float64
		bytes  float64
		allocs *float64
	}
	folds := map[string]map[string]*fold{}
	lastCPU := map[string]string{}
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
		nsPerOp, err := strconv.ParseFloat(m[4], 64)
		if err != nil {
			continue
		}
		cpu := m[2]
		if cpu == "" {
			cpu = "1"
		}
		if folds[m[1]] == nil {
			folds[m[1]] = map[string]*fold{}
		}
		f := folds[m[1]][cpu]
		if f == nil {
			f = &fold{}
			folds[m[1]][cpu] = f
		}
		f.ns = append(f.ns, nsPerOp)
		res := BenchResult{Iterations: iters}
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
				f.bytes = max(f.bytes, v)
			case "allocs/op":
				if f.allocs == nil || v > *f.allocs {
					f.allocs = &v
				}
			default:
				if res.Metrics == nil {
					res.Metrics = map[string]float64{}
				}
				res.Metrics[fields[i+1]] = v
			}
		}
		lastCPU[m[1]] = cpu
		out[m[1]] = res
	}
	for name, byCPU := range folds {
		res := out[name]
		res.ByCPU = make(map[string]float64, len(byCPU))
		for cpu, f := range byCPU {
			res.ByCPU[cpu] = median(f.ns)
		}
		last := byCPU[lastCPU[name]]
		res.NsPerOp = res.ByCPU[lastCPU[name]]
		res.BytesPerOp, res.AllocsPerOp = last.bytes, last.allocs
		out[name] = res
	}
	return out, sc.Err()
}

// median returns the middle value of vs, or the mean of the two middle
// values when there is an even number of them. It sorts vs.
func median(vs []float64) float64 {
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

func main() {
	in := flag.String("in", "", "bench output file (default stdin)")
	out := flag.String("out", "", "write the JSON artifact here")
	sha := flag.String("sha", "", "commit sha recorded in the artifact")
	baselinePath := flag.String("baseline", "", "checked-in baseline artifact the relative rows compare with")
	loadgenPath := flag.String("loadgen", "", "cloudeval loadgen report JSON to gate and fold into the artifact")
	flag.Parse()
	if err := run(os.Stdout, *in, *out, *sha, *baselinePath, *loadgenPath, runtime.NumCPU()); err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, in, out, sha, baselinePath, loadgenPath string, cpus int) error {
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

	// A missing or corrupt baseline or loadgen report must not suppress
	// the artifact: CI uploads it with if: always() precisely because
	// failed runs are when the measurements matter. Their errors join
	// the verdict after the write.
	var errs []error
	var base Artifact
	if baselinePath != "" {
		if err := readJSON(baselinePath, &base); err != nil {
			errs = append(errs, fmt.Errorf("baseline: %w", err))
		}
	}
	if loadgenPath != "" {
		var rep loadgen.Report
		if err := readJSON(loadgenPath, &rep); err != nil {
			errs = append(errs, fmt.Errorf("loadgen report: %w", err))
		} else if rep.Requests <= 0 {
			errs = append(errs, fmt.Errorf("loadgen report %s records no requests", loadgenPath))
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
		fmt.Fprintf(w, "benchguard: wrote %s (%d benchmarks)\n", out, len(benchmarks))
	}

	if art.Loadgen != nil && len(art.Loadgen.Errors) > 0 {
		classes := make([]string, 0, len(art.Loadgen.Errors))
		for class, n := range art.Loadgen.Errors {
			classes = append(classes, fmt.Sprintf("%s=%d", class, n))
		}
		sort.Strings(classes)
		fmt.Fprintln(w, "benchguard: loadgen errors", strings.Join(classes, " "))
	}
	rows := table(&base)
	if failed := gate(w, rows, &art, &base, cpus); failed > 0 {
		errs = append(errs, fmt.Errorf("%d of %d gates failed", failed, len(rows)))
	}
	return errors.Join(errs...)
}

// readJSON decodes the JSON file at path into v.
func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}
