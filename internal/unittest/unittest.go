// Package unittest executes a problem's bash unit-test script against a
// candidate YAML answer inside a fresh simulated environment, the
// function-level scoring backend of CloudEval-YAML (§3.2). The
// environment comes from the problem's workload-family backend
// (internal/scenario), so Kubernetes problems run against kubesim,
// Envoy problems against envoysim, Compose problems against composesim,
// and so on — each family drawing from its own environment pool.
package unittest

import (
	"strings"
	"time"

	"cloudeval/internal/dataset"
	"cloudeval/internal/scenario"
	"cloudeval/internal/shell"
)

// Result captures one unit-test execution.
type Result struct {
	Passed   bool
	Output   string
	ExitCode int
	// VirtualTime is how much simulated wall-clock the script consumed
	// (waits, sleeps, timeouts). The evalcluster package charges this
	// against worker time when reproducing Figure 5.
	VirtualTime time.Duration
	// Err reports script-level failures (parse errors); a failing test
	// is not an error.
	Err error
}

// script is a unit test compiled by the shell, or why it does not
// parse.
type script struct {
	prog *shell.Program
	err  error
}

func compileScript(p dataset.Problem) *script {
	prog, err := shell.Parse(p.UnitTest)
	return &script{prog, err}
}

// Run executes the problem's unit test with answerYAML installed as
// labeled_code.yaml, in an environment drawn from the problem family's
// pool. The script is compiled once per problem (see dataset.Memo).
// Success means the script printed a line containing
// "unit_test_passed" (some problems use prefixed markers such as
// cn1000_unit_test_passed, as in the paper's Figure 1).
func Run(p dataset.Problem, answerYAML string) Result {
	s := dataset.Memo(p, dataset.TestProgram, compileScript)
	if s.err != nil {
		return Result{Err: s.err}
	}
	backend := scenario.For(p.Category)
	env := backend.GetEnv()
	defer backend.PutEnv(env)
	sh := env.Interp()
	sh.FS["labeled_code.yaml"] = answerYAML
	start := env.Now()
	// Result keeps no stderr, so the script's goes unwritten.
	out, code := sh.ExecStdout(s.prog)
	return Result{
		Passed:      strings.Contains(out, "unit_test_passed"),
		Output:      out,
		ExitCode:    code,
		VirtualTime: env.Now().Sub(start),
	}
}

// Score converts a Result into the paper's 0/1 unit test score.
func (r Result) Score() float64 {
	if r.Passed {
		return 1
	}
	return 0
}
