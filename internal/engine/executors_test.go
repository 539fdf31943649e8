package engine_test

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cloudeval/internal/dataset"
	"cloudeval/internal/evalcluster"
	"cloudeval/internal/miniredis"
	"cloudeval/internal/raceflag"
	"cloudeval/internal/scenario"
	"cloudeval/internal/unittest"
)

// runOn is unittest.Run on an environment the caller chose instead of
// the family pool's.
func runOn(env scenario.Env, p dataset.Problem, answer string) unittest.Result {
	sh := env.Interp()
	sh.FS["labeled_code.yaml"] = answer
	start := env.Now()
	res, err := sh.Run(p.UnitTest)
	if err != nil {
		return unittest.Result{Err: err}
	}
	return unittest.Result{
		Passed:      strings.Contains(res.Stdout, "unit_test_passed"),
		Output:      res.Stdout,
		ExitCode:    res.ExitCode,
		VirtualTime: env.Now().Sub(start),
	}
}

// TestExecutorsAgree: every distinct Table 4 execution gives the same
// unittest.Result — every field, byte for byte — through unittest.Run
// (the family's pool), on an environment built for it alone, and on one
// environment per family reset after each of the executions before it:
// nothing an execution leaves behind (documents memoised on objects,
// bucket capacity, the clock) reaches the next. Every tenth execution
// also goes through evalcluster.ClusterExecutor and a worker over
// loopback TCP, which must report what the wire carries of the same
// result: Passed, VirtualTime, and the last 400 bytes of a failing
// test's Output (ExitCode and a passing test's Output do not cross it).
func TestExecutorsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 4 matrix in -short mode")
	}
	execs := table4Executions()

	srv := miniredis.NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	problems := make([]dataset.Problem, len(execs))
	for i, x := range execs {
		problems[i] = x.problem
	}
	worker, err := evalcluster.NewWorker(addr, "w", problems)
	if err != nil {
		t.Fatal(err)
	}
	// The worker gives up on an idle queue quickly, so that the test
	// ends quickly, and is started again until the test is over: a
	// stall between two of the jobs must not leave the rest unclaimed.
	over := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer worker.Close()
		for {
			select {
			case <-over:
				return
			default:
			}
			if _, err := worker.Run(100 * time.Millisecond); err != nil {
				t.Errorf("worker: %v", err)
				return
			}
		}
	}()
	defer wg.Wait()
	defer close(over)
	remote, err := evalcluster.NewClusterExecutor(addr, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	same := func(a, b unittest.Result) bool {
		return a.Passed == b.Passed && a.Output == b.Output && a.ExitCode == b.ExitCode &&
			a.VirtualTime == b.VirtualTime && (a.Err == nil) == (b.Err == nil) &&
			(a.Err == nil || a.Err.Error() == b.Err.Error())
	}
	reused := map[dataset.Category]scenario.Env{}
	overTCP := 0
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

		if i%10 != 0 {
			continue
		}
		overTCP++
		wire := unittest.Result{Passed: want.Passed, VirtualTime: want.VirtualTime}
		if !want.Passed {
			wire.Output = want.Output[max(0, len(want.Output)-400):]
		}
		if got := remote.RunUnitTest(p, answer); !same(got, wire) {
			t.Errorf("%s: over TCP %+v, want %+v", p.ID, got, wire)
		}
	}
	t.Logf("%d executions on three environments, %d of them over TCP too", len(execs), overTCP)
}

// unitTestMaxAllocs caps the mean number of allocations of one
// unittest.Run over the distinct Table 4 executions, on warm caches. It
// read 50 while kubectl rebuilt a status document per read and parsed
// its selector per wait step, 29 while the shell's streams were
// strings.Builders and jsonpath built a slice per step, 16.6 while
// they wrote into pooled buffers but the simulated cluster built a
// manifest tree per spawned pod, deep-copied every Service and keyed
// its objects by "ns/name" strings, and reads 12.4 since it keeps
// typed state and builds YAML only where a command reads it.
const unitTestMaxAllocs = 14

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
