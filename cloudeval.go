// Package cloudeval is the public API of the CloudEval-YAML benchmark
// reproduction: a hand-written multi-family dataset for cloud
// configuration generation (the paper's 337 Kubernetes/Envoy/Istio
// problems plus Docker Compose and Helm extension families, tripled by
// augmentation), a six-metric scoring pipeline (text-level,
// YAML-aware and function-level via simulated Kubernetes/Envoy
// clusters), a unified parallel evaluation engine with in-process and
// distributed executors, and the paper's full evaluation study over a
// twelve-model zoo.
//
// Quick start:
//
//	bench := cloudeval.New()
//	fmt.Println(bench.Table4()) // the zero-shot leaderboard
//
// Score a single answer functionally:
//
//	p := bench.Originals[0]
//	result := cloudeval.RunUnitTest(p, myYAML)
//	fmt.Println(result.Passed)
//
// Each benchmark runs every evaluation on its own evaluator
// (Benchmark.Evaluator), one engine and one inference dispatcher built
// with it; nothing is shared process-wide, so two benchmarks never see
// each other's caches.
//
// The cloudeval command (cmd/cloudeval) is the one binary over this
// API: the tables and figures, the dataset writer, the HTTP daemon
// (cloudeval serve) and the distributed cluster's nodes (cloudeval
// node redis|worker|master).
//
// See DESIGN.md for the system inventory, the engine architecture and
// the index mapping experiment IDs to the paper's tables and figures.
package cloudeval

import (
	"cloudeval/internal/core"
	"cloudeval/internal/dataset"
	"cloudeval/internal/engine"
	"cloudeval/internal/inference"
	"cloudeval/internal/llm"
	"cloudeval/internal/score"
	"cloudeval/internal/store"
	"cloudeval/internal/unittest"
	"cloudeval/internal/yamlmatch"
)

// Benchmark is a configured CloudEval-YAML instance; see core.Benchmark
// for the full method set (Table1..Table9, Figure5..Figure9, ZeroShot).
type Benchmark = core.Benchmark

// Engine is the parallel evaluation engine every campaign submits
// through: one claim loop over a pluggable executor (the in-process
// pool by default, the distributed evalcluster path via cloudeval
// node) with answer memoization. A benchmark's evaluator holds
// its engine (Benchmark.Evaluator().Engine()); see DESIGN.md §2.
type Engine = engine.Engine

// Problem is one benchmark entry: question, optional YAML context,
// labeled reference answer and bash unit test.
type Problem = dataset.Problem

// Model is one entry of the simulated model zoo.
type Model = llm.Model

// ProblemScore holds the six metrics for one (model, problem) pair.
type ProblemScore = score.ProblemScore

// UnitTestResult is the outcome of one functional evaluation.
type UnitTestResult = unittest.Result

// Store is the persistent, content-addressed evaluation store: an
// append-only on-disk log of unit-test results keyed by
// (unit-test-script digest, answer digest), the second cache tier
// under the engine. See DESIGN.md §2.5.
type Store = store.Store

// New builds the default benchmark: the hand-written problems of every
// registered workload family, their simplified and translated
// variants, and the twelve-model zoo of Table 4, evaluated on an
// engine and a sim dispatcher of its own. Two benchmarks share no
// cache; this facade is where those defaults are chosen, and below it
// every entry point is handed its evaluator.
func New() *Benchmark {
	return newBenchmark(engine.New(), inference.NewDispatcher(inference.NewSim(llm.Models)))
}

func newBenchmark(eng *engine.Engine, disp *inference.Dispatcher) *Benchmark {
	return core.New(score.NewEvaluator(eng, disp), dataset.Generate(), llm.Models)
}

// NewPersistent builds a benchmark whose engine and inference
// dispatcher are both backed by the persistent store at storePath:
// unit-test results and generations survive the process, so a
// repeated campaign neither executes nor generates anything. The
// caller owns closing the returned store after the last evaluation.
func NewPersistent(storePath string) (*Benchmark, *Store, error) {
	st, err := store.Open(storePath)
	if err != nil {
		return nil, nil, err
	}
	disp := inference.NewDispatcher(inference.NewSim(llm.Models), inference.WithGenStore(st))
	return newBenchmark(engine.New(engine.WithStore(st)), disp), st, nil
}

// Dataset returns the original problems of every workload family (the
// paper's 337 plus the Compose and Helm extensions).
func Dataset() []Problem { return dataset.Generate() }

// Models returns the model zoo in the paper's ranking order.
func Models() []Model { return llm.Models }

// RunUnitTest executes a problem's unit test against a candidate YAML
// answer in a fresh simulated cluster.
func RunUnitTest(p Problem, answerYAML string) UnitTestResult {
	return unittest.Run(p, answerYAML)
}

// ScoreAnswer computes all six metrics for a candidate answer, running
// its unit test on a fresh engine: a cheap value with no goroutines, so
// nothing is shared with any other call. Repeated scoring should call
// Score on a benchmark's evaluator, whose engine memoizes unit tests.
func ScoreAnswer(p Problem, answerYAML string) ProblemScore {
	return score.NewEvaluator(engine.New(), nil).Score(p, answerYAML)
}

// Postprocess extracts clean YAML from a raw LLM response using the
// paper's §3.1 policies.
func Postprocess(response string) string { return llm.Postprocess(response) }

// CleanReference returns a problem's reference answer with match labels
// stripped — the text a perfect model would produce.
func CleanReference(p Problem) string { return yamlmatch.StripLabels(p.ReferenceYAML) }
