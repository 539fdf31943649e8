// Command bench is the repository's benchmark: one workload per process,
// fixed-work reps, every metric printed by name and unit, outputs
// verified, and the result as one JSON object on the last line of
// standard output. README.md says what each workload and metric is for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// metricDef is one metric as BENCHMARK.json declares it. bound is the
// share of the parent's median an end-to-end metric may worsen by;
// per-layer metrics have none.
type metricDef struct {
	name, unit string
	higher     bool
	bound      float64
}

// endToEnd is what a user of a campaign or of the daemon sees. Only
// two of the five are clock readings, and their bound is the widest the
// contract allows: on the shared 2-vCPU box identical reps drift by
// ±15 % over minutes (README.md, Noise), so a clock cannot gate tighter.
// The precise instruments are the allocation counters, which repeat to
// a tenth of a percent.
var endToEnd = []metricDef{
	{"setup_s", "s", false, 0.25},
	{"ops_per_s", "1/s", true, 0.25},
	{"allocs_per_op", "count", false, 0.03},
	{"alloc_bytes_per_op", "B", false, 0.03},
	{"peak_rss_mb", "MB", false, 0.15},
}

var workloadNames = []string{"table4_cold", "table4_warm_store", "unittest_stream", "serve_eval"}

func procs() int { return runtime.GOMAXPROCS(0) }

func newWorkload(name string, seed int64, dir string) (workload, error) {
	// units sets the length of a timed rep: 2.4 to 3.3 s of fixed work
	// on the 2-vCPU reference box (README.md, Noise).
	b := func(units int) base { return base{c: newCorpus(seed), dir: dir, seed: seed, units: units} }
	switch name {
	case "table4_cold":
		return &table4{base: b(2)}, nil
	case "table4_warm_store":
		return &table4{base: b(3), warm: true}, nil
	case "unittest_stream":
		return &stream{base: b(30)}, nil
	case "serve_eval":
		return &serve{base: b(2), conns: procs()}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

const minReps = 3

// timedReps calls each, one rep, until the next call would overrun
// budget, and at least minReps times. runtime.GC and the workload's own
// clean-up run between the timed windows, never inside one.
func timedReps(budget time.Duration, each func() error) error {
	phase := time.Now()
	for n := 0; ; n++ {
		if n >= minReps && time.Since(phase)+time.Since(phase)/time.Duration(n) > budget {
			return nil
		}
		if err := each(); err != nil {
			return err
		}
		runtime.GC()
	}
}

// setupRuns is how many times a run sets up, each in a process of its
// own; setup_s is their median.
const setupRuns = 3

// prepare builds the workload's inputs and runs the warm-up, and
// returns the age of the process when both are done. The warm-up fills
// the process-wide caches (reference contexts, prompt cache, digest
// memo, parsed documents, shell ASTs) and grows the heap to its working
// size: all of that is set-up, none of it is in a timed rep.
func prepare(name string, seed int64, dir string, traced bool) (workload, time.Duration, error) {
	w, err := newWorkload(name, seed, dir)
	if err != nil {
		return nil, 0, err
	}
	if err := w.setup(traced); err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	var warm meter
	if err := w.rep(&warm, nil, 1); err != nil {
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	runtime.GC()
	w.discardWarmup()
	return w, sinceProcessStart(), nil
}

// scratchDir makes the directory this process keeps its stores in,
// inside the checkout.
func scratchDir(name string) (string, error) {
	dir, err := filepath.Abs(filepath.Join(".tmp", fmt.Sprintf("%s-%d", name, os.Getpid())))
	if err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// setupOnly is what a child of run does: set up, print how long it
// took, exit.
func setupOnly(name string, seed int64) error {
	dir, err := scratchDir(name)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	_, setup, err := prepare(name, seed, dir, false)
	if err != nil {
		return err
	}
	fmt.Println(setup.Seconds())
	return nil
}

// childSetup runs setupOnly in a fresh process, where every lazily
// filled cache is empty again, waits for it and returns its reading.
func childSetup(name string, seed int64) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, "-setup-only", "-workload", name, "-seed", strconv.FormatInt(seed, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up in a child process: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

func run(name string, seed int64, seconds int, traced bool, traceOut string) (result, error) {
	layers := map[string]float64{"proc.gomaxprocs": float64(procs())}
	if traced {
		layers["machine.calib_sha256_ms_before"] = calibrate()
	}
	dir, err := scratchDir(name)
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)

	w, setup, err := prepare(name, seed, dir, traced)
	if err != nil {
		return result{}, err
	}
	units := w.unitsPerRep()
	opsPerRep := units * w.opsPerUnit()

	budget := time.Duration(seconds) * time.Second
	if traced {
		budget /= 2
	}
	var m meter
	if err := timedReps(budget, func() error { return w.rep(&m, nil, units) }); err != nil {
		return result{}, err
	}
	peakRSS := peakRSSMB() // before verification grows the heap
	attempted := len(m.reps) * opsPerRep

	var ops, mallocs, bytes, gcCycles uint64
	var cpu time.Duration
	var gcCPU float64
	heaps := make([]float64, len(m.reps))
	walls := make([]float64, len(m.reps))
	for i, r := range m.reps {
		ops += uint64(r.ops)
		mallocs += r.mallocs
		bytes += r.bytes
		gcCycles += uint64(r.gcCycles)
		cpu += r.cpu
		gcCPU += r.gcCPU
		heaps[i] = float64(r.heapInuse) / (1 << 20)
		walls[i] = ms(r.wall)
	}
	rates := opsPerSecond(m.reps)
	q1, q2, q3 := quartiles(rates)
	fmt.Printf("workload %s seed %d GOMAXPROCS %d: %d timed reps of %d ops, rep wall median %.0f ms\n",
		name, seed, procs(), len(m.reps), opsPerRep, median(walls))
	fmt.Printf("ops_per_s over reps: q1 %.1f median %.1f q3 %.1f (n=%d)\n", q1, q2, q3, len(rates))
	fmt.Printf("ops_per_s of each rep: %.1f\n", rates)

	values := map[string]float64{
		"ops_per_s":          q2,
		"allocs_per_op":      float64(mallocs) / float64(ops),
		"alloc_bytes_per_op": float64(bytes) / float64(ops),
		"peak_rss_mb":        peakRSS,
	}
	defs := endToEnd

	if traced {
		layers["harness.timed_reps"] = float64(len(m.reps))
		layers["harness.rep_ms"] = median(walls)
		layers["proc.cpu_us_per_op"] = float64(cpu) / float64(ops) / 1e3
		layers["proc.gc_cycles_per_rep"] = float64(gcCycles) / float64(len(m.reps))
		layers["proc.gc_cpu_fraction"] = gcCPU / cpu.Seconds()
		layers["proc.heap_inuse_mb"] = median(heaps)
		if lat := w.latencies(); len(lat) > 0 {
			layers["client.lat_p50_us"] = float64(percentileDur(lat, 0.50)) / 1e3
			layers["client.lat_p95_us"] = float64(percentileDur(lat, 0.95)) / 1e3
			layers["client.lat_p99_us"] = float64(percentileDur(lat, 0.99)) / 1e3
			layers["client.lat_p999_us"] = float64(percentileDur(lat, 0.999)) / 1e3
			layers["client.lat_max_us"] = float64(lat[len(lat)-1]) / 1e3
			layers["client.lat_samples"] = float64(len(lat))
		}

		tr := newTracer(opsPerRep*w.spansPerOp() + 1024)
		var lg ledger
		var mt meter
		err := timedReps(budget, func() error {
			tr.reset()
			if err := w.rep(&mt, tr, units); err != nil {
				return err
			}
			tr.resolve(w.infos())
			lg.fold(tr.recorded())
			return nil
		})
		if err != nil {
			return result{}, fmt.Errorf("traced rep: %w", err)
		}
		attempted += len(mt.reps) * opsPerRep
		for _, r := range mt.reps {
			lg.wallNs += int64(r.wall)
		}
		if dropped := tr.dropped.Load(); dropped > 0 {
			return result{}, fmt.Errorf("span buffer too small: %d spans dropped", dropped)
		}
		if err := writeChromeTrace(traceOut, tr.recorded()); err != nil {
			return result{}, fmt.Errorf("writing the trace: %w", err)
		}
		fmt.Printf("trace of the last traced rep (%d spans): %s\n", len(tr.recorded()), traceOut)
		for k, v := range layerMetrics(&lg, w.counted()) {
			layers[k] = v
		}
		layers["trace.overhead_ratio"] = median(opsPerSecond(mt.reps)) / q2
		micro, err := w.micro()
		if err != nil {
			return result{}, fmt.Errorf("layer micro-measurement: %w", err)
		}
		for k, v := range micro {
			layers[k] = v
		}
		layers["machine.calib_sha256_ms_after"] = calibrate()
		values, defs = layers, perLayer
	} else {
		// The other set-ups run now, while this process is idle: before
		// its own they would be counted in it, and during the timed reps
		// they would compete with them.
		setups := []float64{setup.Seconds()}
		for len(setups) < setupRuns {
			s, err := childSetup(name, seed)
			if err != nil {
				return result{}, err
			}
			setups = append(setups, s)
		}
		fmt.Printf("setup_s of each set-up (this process first): %.3f\n", setups)
		values["setup_s"] = median(setups)
	}

	failed := min(w.verify(), attempted)
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
		fmt.Printf("%-40s %16.4f %s\n", d.name, values[d.name], d.unit)
	}
	for k := range values {
		if _, declared := res.Metrics[k]; !declared {
			return result{}, fmt.Errorf("metric %q is measured but not declared", k)
		}
	}
	return res, nil
}

func main() {
	name := flag.String("workload", "", "one of table4_cold, table4_warm_store, unittest_stream, serve_eval")
	seed := flag.Int64("seed", 1, "orders the inputs; the program under test never sees it")
	seconds := flag.Int("seconds", 20, "how long the timed reps run")
	traced := flag.Int("trace", 0, "1: report the per-layer metrics from a traced run, and write the spans")
	traceOut := flag.String("trace-out", "", "span file of a traced run (default .out/<workload>.trace.json)")
	selfcheck := flag.Bool("selfcheck", false, "run every workload as two interleaved sets and compare their medians with the bounds")
	setupChild := flag.Bool("setup-only", false, "set up the workload, print how long it took in seconds, and exit (what a run starts to measure setup_s again)")
	flag.Parse()
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	if *setupChild {
		if err := setupOnly(*name, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		return
	}
	if *selfcheck {
		if err := selfCheck(*seed, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	if *traceOut == "" {
		*traceOut = filepath.Join(".out", *name+".trace.json")
	}
	res, err := run(*name, *seed, *seconds, *traced != 0, *traceOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
