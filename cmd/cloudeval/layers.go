package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"

	"cloudeval/internal/augment"
	"cloudeval/internal/composesim"
	"cloudeval/internal/dataset"
	"cloudeval/internal/engine"
	"cloudeval/internal/envoysim"
	"cloudeval/internal/inference"
	"cloudeval/internal/kubesim"
	"cloudeval/internal/llm"
	"cloudeval/internal/prompt"
	"cloudeval/internal/score"
	"cloudeval/internal/shell"
	"cloudeval/internal/stage"
	"cloudeval/internal/store"
	"cloudeval/internal/textmetrics"
	"cloudeval/internal/unittest"
	"cloudeval/internal/yamlmatch"
	"cloudeval/internal/yamlx"
)

// layersHz is the CPU sampling rate of a layer ledger. A warm campaign
// is a fraction of a CPU-second on a small box, so the profiler's
// default 100 Hz would leave a handful of samples to most stages.
const layersHz = 1000

// warmReps is how many warm campaigns the CPU pass profiles; their
// samples are summed into the warm column.
const warmReps = 20

// minColdSamples is how many CPU samples the cold column holds at
// least. One process-cold campaign gives a hundred or so (the kernel's
// timer delivers a fraction of layersHz), too few for a stage below 5 %
// to read the same twice, so the column merges process-cold campaigns,
// each in a child process of its own, until it holds this many, or
// maxColdRuns have run.
const (
	minColdSamples = 1000
	maxColdRuns    = 40
)

// layersPassEnv, set in its environment, makes cloudeval bench -layers
// one of the child processes a ledger is measured in: passAllocs counts
// the allocations of a cold and a warm campaign, passCold profiles the
// CPU of one process-cold campaign.
const layersPassEnv = "CLOUDEVAL_LAYERS_PASS"

const (
	passAllocs = "allocs"
	passCold   = "cold"
)

// unstaged is the ledger row of CPU samples without a stage label and of
// allocations with no stage root on their stack.
const unstaged = stage.Count

// column is the ledger's record of one kind of campaign.
type column struct {
	Runs    int                    // campaigns whose CPU samples it holds
	Ops     int                    // (model, problem) pairs in a campaign
	Allocs  [stage.Count + 1]int64 // objects allocated, by stage
	Samples int                    // CPU samples
	CPU     [stage.Count + 1]int64 // CPU nanoseconds, by stage
}

// layers writes to path the ledger of Table 4 campaigns, each on a
// fresh dispatcher, engine and store as a cold campaign runs: campaigns
// with the process cold, and campaigns with every process-wide cache
// warm. For each it gives every stage's share of CPU and its
// allocations per (model, problem) pair.
//
// Recording every allocation costs more CPU than the campaign itself,
// and a process is cold only once, so the ledger is measured in several
// processes: this one profiles the CPU of warmReps warm campaigns, a
// child process per process-cold campaign profiles that campaign's
// (until the cold column holds minColdSamples), and one more child
// counts the allocations of one cold and one warm campaign. All of them
// run the same binary.
func layers(w *wiring, path string) error {
	pass := os.Getenv(layersPassEnv)
	if pass == passAllocs {
		runtime.MemProfileRate = 1 // before the corpus is built
	}
	problems := augment.ExpandCorpus(dataset.Generate())
	dir, err := os.MkdirTemp("", "cloudeval-layers-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	seq := 0
	var want string // the Table 4 every campaign prints
	// campaign runs one campaign on a store of its own and returns how
	// many pairs it scored.
	campaign := func() (ops int, err error) {
		seq++
		w.store = filepath.Join(dir, fmt.Sprintf("cold-%d.store", seq))
		rows, raw, err := stagedCampaign(w, problems)
		if err != nil {
			return 0, err
		}
		if table := score.FormatTable4(rows); want == "" {
			want = table
		} else if table != want {
			return 0, fmt.Errorf("layers: two campaigns' Table 4 differ:\n%s\n%s", want, table)
		}
		for _, scores := range raw {
			ops += len(scores)
		}
		return ops, nil
	}
	run := func() error {
		_, err := campaign()
		return err
	}
	switch pass {
	case passAllocs:
		var cols [2]column
		for k := range cols {
			err := cols[k].countAllocs(func() (err error) {
				cols[k].Ops, err = campaign()
				return err
			})
			if err != nil {
				return err
			}
		}
		return writeJSON(path, cols)
	case passCold:
		var col column
		if err := col.sampleCPU(1, run); err != nil {
			return err
		}
		return writeJSON(path, col)
	}
	var cols [2]column
	for cols[0].Samples < minColdSamples && cols[0].Runs < maxColdRuns {
		var cold column
		if err := childPass(w, passCold, filepath.Join(dir, "cold.json"), &cold); err != nil {
			return err
		}
		cols[0].addCPU(cold)
	}
	if err := run(); err != nil { // warms this process
		return err
	}
	if err := cols[1].sampleCPU(warmReps, run); err != nil {
		return err
	}
	var counts [2]column
	if err := childPass(w, passAllocs, filepath.Join(dir, "allocs.json"), &counts); err != nil {
		return err
	}
	for k := range cols {
		cols[k].Ops, cols[k].Allocs = counts[k].Ops, counts[k].Allocs
	}
	var ledger bytes.Buffer
	writeLedger(&ledger, cols)
	if err := os.WriteFile(path, ledger.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "cloudeval: wrote layer ledger to %s\n", path)
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// childPass runs a pass of the ledger in a child process with this
// one's provider flags, and reads what it wrote to out into v.
func childPass(w *wiring, pass, out string, v any) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, "bench", "-layers", out, "-provider", w.provider, "-replay", w.replay,
		"-gen-concurrency", strconv.Itoa(w.genConcurrency))
	cmd.Env = append(os.Environ(), layersPassEnv+"="+pass)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("layers: %s pass: %w", pass, err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// sampleCPU runs n campaigns under a CPU profile at layersHz and adds
// their samples to the column.
func (col *column) sampleCPU(n int, campaign func() error) error {
	var prof bytes.Buffer
	// StartCPUProfile sets 100 Hz unless a rate is set already; then the
	// rate set first stands, and the runtime says on stderr that it
	// could not change it.
	runtime.SetCPUProfileRate(layersHz)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		runtime.SetCPUProfileRate(0)
		return err
	}
	var err error
	for i := 0; i < n && err == nil; i++ {
		err = campaign()
	}
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	samples, err := readCPUProfile(prof.Bytes())
	if err != nil {
		return err
	}
	col.addSamples(samples)
	col.Runs += n
	return nil
}

// addSamples adds CPU samples to the column by their stage label.
func (col *column) addSamples(samples []cpuSample) {
	for _, s := range samples {
		st, ok := stage.ByName(s.stage)
		if !ok {
			st = unstaged
		}
		col.Samples++
		col.CPU[st] += s.nanos
	}
}

// addCPU adds the CPU samples of c's campaigns to the column.
func (col *column) addCPU(c column) {
	col.Runs += c.Runs
	col.Samples += c.Samples
	for s := range col.CPU {
		col.CPU[s] += c.CPU[s]
	}
}

// countAllocs runs campaign between two snapshots of the heap profile
// and adds what it allocated to the column, by stage.
func (col *column) countAllocs(campaign func() error) error {
	runtime.GC()
	before := heapRecords()
	if err := campaign(); err != nil {
		return err
	}
	runtime.GC() // publishes the campaign's allocations to the heap profile
	for stk, n := range heapRecords() {
		if d := n - before[stk]; d > 0 {
			if s, ok := stageOfStack(stk); ok {
				col.Allocs[s] += d
			}
		}
	}
	return nil
}

// stagedCampaign is what a cold campaign pays: open the store, run the
// matrix, close the store.
func stagedCampaign(w *wiring, problems []dataset.Problem) ([]score.ModelAggregate, map[string][]score.ProblemScore, error) {
	defer stage.Clear()
	stage.Set(stage.Store)
	c, err := w.open()
	if err != nil {
		return nil, nil, err
	}
	rows, raw := c.ev.Benchmark(llm.Models, problems)
	stage.Set(stage.Store)
	return rows, raw, c.close()
}

// heapRecords snapshots the heap profile: objects allocated so far by
// allocating stack.
func heapRecords() map[[32]uintptr]int64 {
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			break
		}
	}
	out := make(map[[32]uintptr]int64, n)
	for _, r := range recs[:n] {
		out[r.Stack0] += r.AllocObjects
	}
	return out
}

// A heap profile has stacks, not labels, so an allocation's stage is
// read off its stack: the innermost call of one of these functions,
// which are where the stages are entered. A root also holds its
// closures, and a root that names a type holds its methods.
var stageRoots = [stage.Count][]any{
	stage.Campaign:    {(*score.Evaluator).Benchmark, "cloudeval/internal/score.(*Evaluator).run", "cloudeval/internal/engine.spread"},
	stage.Prompt:      {prompt.Build, inference.WarmPrompts},
	stage.Dispatch:    {(*inference.Dispatcher).Generate, (*inference.Dispatcher).Answer},
	stage.Provider:    {(*inference.Sim).Generate},
	stage.Postprocess: {llm.Postprocess},
	stage.Score:       {"cloudeval/internal/score.refFor", "cloudeval/internal/score.(*textMemo).score"},
	stage.BLEU:        {(*textmetrics.BLEURef).Score},
	stage.EditDist:    {(*textmetrics.LineRef).EditDistanceScore},
	stage.Exact:       {(*textmetrics.LineRef).ExactMatch},
	stage.KV:          {(*yamlmatch.Ref).Score},
	stage.Parse:       {yamlx.ParseAllCached, yamlx.ParseCachedString, "cloudeval/internal/yamlx.(*builder)"},
	stage.Engine:      {(*engine.Engine).UnitTest, engine.WarmDigests},
	stage.Store:       {store.Open, (*store.Store).Get, (*store.Store).Put, (*store.Store).GetGen, (*store.Store).PutGen, (*store.Store).Close},
	stage.Compile:     {shell.Parse},
	stage.Shell:       {unittest.Run, (*shell.Interp).Exec},
	stage.Apply:       {(*kubesim.Cluster).ApplyYAML, (*kubesim.Cluster).Apply, (*kubesim.Cluster).DeleteYAML, (*composesim.Project).Load, envoysim.LoadCached},
	stage.Wait:        {(*kubesim.Cluster).WaitFor},
}

// rootStage maps each root's function name to its stage.
var rootStage = func() map[string]stage.Stage {
	m := map[string]stage.Stage{}
	for s, roots := range stageRoots {
		for _, r := range roots {
			name, ok := r.(string)
			if !ok {
				name = runtime.FuncForPC(reflect.ValueOf(r).Pointer()).Name()
			}
			m[name] = stage.Stage(s)
		}
	}
	return m
}()

// stageOfStack is the stage of an allocation at stk, and false for
// one of heapRecords' own, which no campaign made.
func stageOfStack(stk [32]uintptr) (stage.Stage, bool) {
	n := 0
	for n < len(stk) && stk[n] != 0 {
		n++
	}
	frames := runtime.CallersFrames(stk[:n])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, ".heapRecords") {
			return 0, false
		}
		if s, ok := stageOfFunc(f.Function); ok {
			return s, true
		}
		if !more {
			return unstaged, true
		}
	}
}

// stageOfFunc is the stage fn is a root of, or of whose closures it is
// one.
func stageOfFunc(fn string) (stage.Stage, bool) {
	for {
		if s, ok := rootStage[fn]; ok {
			return s, true
		}
		i := strings.LastIndexByte(fn, '.')
		if i < 0 || strings.LastIndexByte(fn, '/') > i {
			return 0, false
		}
		fn = fn[:i]
	}
}

// writeLedger writes the ledger: a header naming the box, the build
// and each column's samples, then a row per stage, ranked by the warm
// campaign's allocations per pair.
func writeLedger(w io.Writer, cols [2]column) {
	fmt.Fprintln(w, "# Layer ledger of a cold Table 4 campaign (cloudeval bench -layers; ci/layers.sh)")
	fmt.Fprintf(w, "# box: %s, %d CPUs, GOMAXPROCS %d, %s/%s, %s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.GOOS, runtime.GOARCH, runtime.Version())
	fmt.Fprintf(w, "# sha: %s\n", buildRevision())
	fmt.Fprintf(w, "# cpu%%: share of CPU samples (%d Hz asked; the kernel's timer may give fewer), by the goroutine's pprof label %q; (none) is a sample without one\n", layersHz, stage.Key)
	fmt.Fprintln(w, "# allocs/op: objects allocated per (model, problem) pair, every allocation recorded (MemProfileRate 1, in a child process),")
	fmt.Fprintln(w, "#   by the innermost stage root on the allocating stack (stageRoots in cmd/cloudeval/layers.go); (none) is a stack without one")
	for k, what := range [2]string{"cold: process-cold campaigns, each in a process of its own", "warm: campaigns with every process-wide cache warm"} {
		c := cols[k]
		fmt.Fprintf(w, "# %s: CPU of %d campaigns, %d samples, %.1f %% labelled; allocations of one, %d ops, %.3f allocs/op\n",
			what, c.Runs, c.Samples, 100*(1-share(c.CPU[unstaged], c.CPU[:])), c.Ops, perOp(sum(c.Allocs[:]), c.Ops))
	}
	rows := make([]stage.Stage, 0, stage.Count+1)
	for s := range stage.Count + 1 {
		rows = append(rows, s)
	}
	warm := cols[1]
	sort.SliceStable(rows, func(i, j int) bool { return warm.Allocs[rows[i]] > warm.Allocs[rows[j]] })
	fmt.Fprintf(w, "%-12s %10s %15s %10s %15s\n", "stage", "cold cpu%", "cold allocs/op", "warm cpu%", "warm allocs/op")
	row := func(name string, cold, warm [2]float64) {
		fmt.Fprintf(w, "%-12s %10.1f %15.3f %10.1f %15.3f\n", name, cold[0], cold[1], warm[0], warm[1])
	}
	cell := func(c column, s stage.Stage) [2]float64 {
		return [2]float64{100 * share(c.CPU[s], c.CPU[:]), perOp(c.Allocs[s], c.Ops)}
	}
	for _, s := range rows {
		name := "(none)"
		if s < stage.Count {
			name = s.String()
		}
		row(name, cell(cols[0], s), cell(warm, s))
	}
	total := func(c column) [2]float64 { return [2]float64{100, perOp(sum(c.Allocs[:]), c.Ops)} }
	row("total", total(cols[0]), total(warm))
}

func sum(xs []int64) int64 {
	var t int64
	for _, x := range xs {
		t += x
	}
	return t
}

func share(x int64, of []int64) float64 {
	if t := sum(of); t > 0 {
		return float64(x) / float64(t)
	}
	return 0
}

func perOp(x int64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return float64(x) / float64(ops)
}

// cpuModel is the processor's model name, where /proc/cpuinfo gives one.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, ln := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(ln, ":"); ok && strings.TrimSpace(k) == "model name" {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown CPU"
}

// buildRevision is the commit the binary was built from, as go build
// stamps it, with "+modified" for a dirty tree.
func buildRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, modified := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			modified = s.Value == "true"
		}
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if modified {
		rev += "+modified"
	}
	return rev
}
