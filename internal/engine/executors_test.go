package engine_test

import (
	"math/rand/v2"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"cloudeval/internal/dataset"
	"cloudeval/internal/engine"
	"cloudeval/internal/llm"
	"cloudeval/internal/raceflag"
	"cloudeval/internal/scenario"
	"cloudeval/internal/shell"
	"cloudeval/internal/unittest"
)

// outcome is what one execution shows: its stdout and stderr, exit code
// and the virtual time it took.
type outcome struct {
	stdout, stderr string
	exit           int
	virtualTime    time.Duration
}

// runOn runs p's unit test against answer on an environment the caller
// chose instead of the family pool's, its stderr taken by a
// unittest.Recorder.
func runOn(env scenario.Env, prog *shell.Program, answer string) outcome {
	sh := env.Interp()
	sh.FS["labeled_code.yaml"] = answer
	rec := unittest.NewRecorder(sh, env.Now)
	start := env.Now()
	stdout, code := sh.Exec(prog)
	return outcome{stdout, rec.Stderr(), code, env.Now().Sub(start)}
}

// sweepExecutions are the distinct Table 4 executions followed by every
// corpus problem of every family, Compose and Helm included, against its
// reference, the empty answer and each distinct answer of the model zoo,
// deduplicated on (script, answer).
func sweepExecutions() []execution {
	type key struct{ test, answer string }
	execs := slices.Clone(table4Executions())
	seen := make(map[key]bool, len(execs))
	for _, x := range execs {
		seen[key{x.problem.UnitTest, x.answer}] = true
	}
	for _, p := range dataset.Generate() {
		answers := []string{p.ReferenceYAML, ""}
		for _, m := range llm.Models {
			answers = append(answers, llm.Postprocess(m.Generate(p, llm.GenOptions{})))
		}
		for _, a := range answers {
			if k := (key{p.UnitTest, a}); !seen[k] {
				seen[k] = true
				execs = append(execs, execution{p, a})
			}
		}
	}
	return execs
}

// TestExecutorsAgree is the determinism sweep. Every execution of
// sweepExecutions gives one outcome — stdout, stderr, exit code and
// virtual time, byte for byte — on each of sweepFresh environments built
// for it alone, and on one environment per family that ran a shuffled
// history of the other executions before it, reset after each: no map
// order reaches what a script sees, and nothing an execution leaves
// behind (documents memoised on objects, arena chunks, bucket capacity,
// the clock) reaches the next. unittest.Run, on the family's pool,
// agrees with them on everything its Result carries.
func TestExecutorsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 4 matrix in -short mode")
	}
	execs := sweepExecutions()
	fresh := sweepFresh
	if raceflag.Enabled {
		fresh = 2
	}
	progs := make([]*shell.Program, len(execs))
	for i, x := range execs {
		prog, err := shell.Parse(x.problem.UnitTest)
		if err != nil {
			t.Fatalf("%s: %v", x.problem.ID, err)
		}
		progs[i] = prog
	}

	// Fresh environments: each execution on its own ones, the first
	// outcome the one every other run must give.
	want := make([]outcome, len(execs))
	engine.New().ForEach(len(execs), func(i int) {
		x := execs[i]
		backend := scenario.For(x.problem.Category)
		want[i] = runOn(backend.NewEnv(), progs[i], x.answer)
		for k := 1; k < fresh; k++ {
			if got := runOn(backend.NewEnv(), progs[i], x.answer); got != want[i] {
				t.Errorf("%s: fresh environment %d gives %+v, the first %+v", x.problem.ID, k, got, want[i])
			}
		}
	})

	// One environment per family, in a seeded shuffled order.
	reused := map[dataset.Category]scenario.Env{}
	order := rand.New(rand.NewPCG(1, 55)).Perm(len(execs))
	for _, i := range order {
		x := execs[i]
		env := reused[x.problem.Category]
		if env == nil {
			env = scenario.For(x.problem.Category).NewEnv()
			reused[x.problem.Category] = env
		}
		got := runOn(env, progs[i], x.answer)
		env.Reset()
		if got != want[i] {
			t.Errorf("%s: the shuffled reused environment gives %+v, a fresh one %+v", x.problem.ID, got, want[i])
		}
	}

	for i, x := range execs {
		res := unittest.Run(x.problem, x.answer)
		w := want[i]
		if res.Err != nil || res.Output != w.stdout || res.ExitCode != w.exit || res.VirtualTime != w.virtualTime ||
			res.Passed != strings.Contains(w.stdout, "unit_test_passed") {
			t.Errorf("%s: unittest.Run gives %+v, a fresh environment %+v", x.problem.ID, res, w)
		}
	}
	t.Logf("%d executions, each on %d fresh environments, a shuffled reused one and the pool", len(execs), fresh)
}

// sweepFresh is how many fresh environments TestExecutorsAgree runs each
// execution on.
const sweepFresh = 8

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
