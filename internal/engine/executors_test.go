package engine_test

import (
	"runtime"
	"strings"
	"testing"

	"cloudeval/internal/dataset"
	"cloudeval/internal/raceflag"
	"cloudeval/internal/scenario"
	"cloudeval/internal/shell"
	"cloudeval/internal/unittest"
)

// runOn is unittest.Run on an environment the caller chose instead of
// the family pool's.
func runOn(env scenario.Env, p dataset.Problem, answer string) unittest.Result {
	sh := env.Interp()
	sh.FS["labeled_code.yaml"] = answer
	start := env.Now()
	prog, err := shell.Parse(p.UnitTest)
	if err != nil {
		return unittest.Result{Err: err}
	}
	stdout, code := sh.Exec(prog)
	return unittest.Result{
		Passed:      strings.Contains(stdout, "unit_test_passed"),
		Output:      stdout,
		ExitCode:    code,
		VirtualTime: env.Now().Sub(start),
	}
}

// TestExecutorsAgree: every distinct Table 4 execution gives the same
// unittest.Result — every field, byte for byte — through unittest.Run
// (the family's pool), on an environment built for it alone, and on one
// environment per family reset after each of the executions before it:
// nothing an execution leaves behind (documents memoised on objects,
// bucket capacity, the clock) reaches the next.
func TestExecutorsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 4 matrix in -short mode")
	}
	execs := table4Executions()

	same := func(a, b unittest.Result) bool {
		return a.Passed == b.Passed && a.Output == b.Output && a.ExitCode == b.ExitCode &&
			a.VirtualTime == b.VirtualTime && (a.Err == nil) == (b.Err == nil) &&
			(a.Err == nil || a.Err.Error() == b.Err.Error())
	}
	reused := map[dataset.Category]scenario.Env{}
	for i, x := range execs {
		p, answer := x.problem, x.answer
		backend := scenario.For(p.Category)
		want := unittest.Run(p, answer)

		if got := runOn(backend.NewEnv(), p, answer); !same(got, want) {
			t.Errorf("%s: a fresh environment gives %+v, the pool %+v", p.ID, got, want)
		}
		env := reused[p.Category]
		if env == nil {
			env = backend.NewEnv()
			reused[p.Category] = env
		}
		got := runOn(env, p, answer)
		env.Reset()
		if !same(got, want) {
			t.Errorf("%s: an environment reset %d times gives %+v, the pool %+v", p.ID, i, got, want)
		}
	}
	t.Logf("%d executions on three environments", len(execs))
}

// unitTestMaxAllocs caps the mean number of allocations of one
// unittest.Run over the distinct Table 4 executions, on warm caches. It
// read 50 while kubectl rebuilt a status document per read and parsed
// its selector per wait step, 29 while the shell's streams were
// strings.Builders and jsonpath built a slice per step, 16.6 while
// they wrote into pooled buffers but the simulated cluster built a
// manifest tree per spawned pod, deep-copied every Service and keyed
// its objects by "ns/name" strings, 12.4 while it kept typed state but
// the run still copied out its stderr, expanded each command into a
// fresh argv, parsed each -l selector into a fresh slice, formatted
// each apply line and rendered each timestamp and address, 8.1 while
// every status document, Service copy and Object was its own heap
// allocation and every listing a fresh slice, 5.1 while the cluster
// built them in an arena its Reset rewinds but kubectl create built its
// manifest on the heap, the compose and helm simulators rebuilt their
// services, containers and releases per execution and every tool
// formatted its stdout through fmt, and reads 3.1 since those too reuse
// their memory across resets and write their stdout.
const unitTestMaxAllocs = 4

func TestUnitTestAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 4 matrix in -short mode")
	}
	if raceflag.Enabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	execs := table4Executions()
	pass := func() {
		for _, x := range execs {
			unittest.Run(x.problem, x.answer)
		}
	}
	pass() // parse every script and document, fill the pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pass()
	runtime.ReadMemStats(&after)
	mean := float64(after.Mallocs-before.Mallocs) / float64(len(execs))
	t.Logf("%.2f allocations per unittest.Run over %d executions", mean, len(execs))
	if mean > unitTestMaxAllocs {
		t.Errorf("%.2f allocations per unittest.Run, cap %d", mean, unitTestMaxAllocs)
	}
}
