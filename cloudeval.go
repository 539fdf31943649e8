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
// through: a work-stealing scheduler over a pluggable executor (the
// in-process pool by default, the distributed evalcluster path via
// cmd/evalnode) with answer memoization. Benchmark.Engine exposes a
// benchmark's engine; see DESIGN.md §2.
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
// variants, and the twelve-model zoo of Table 4, evaluated on the
// process-wide engine and generated by the process-wide sim
// dispatcher. This facade is where those defaults are chosen; below
// it every entry point takes its engine and dispatcher as arguments.
func New() *Benchmark { return core.New() }

// OpenStore opens (or creates) a persistent evaluation store at path,
// replaying every intact record and dropping a crash-torn tail.
func OpenStore(path string) (*Store, error) { return store.Open(path) }

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
	return core.NewVia(engine.New(engine.WithStore(st)), disp), st, nil
}

// Provider is the pluggable inference seam: one Generate call per
// (model, problem, options) request, returning text, metered token
// usage and latency. See DESIGN.md §2.8.
type Provider = inference.Provider

// Dispatcher is the batched inference front-end over a Provider:
// per-provider concurrency limits, a content-addressed generation
// cache (in-memory + store-backed), and metered usage accounting.
type Dispatcher = inference.Dispatcher

// GenRequest and GenResponse are one generation exchange.
type (
	GenRequest  = inference.Request
	GenResponse = inference.Response
)

// NewSimProvider wraps the simulated zoo as a provider, byte-identical
// to the models' direct Generate.
func NewSimProvider(models []Model) Provider { return inference.NewSim(models) }

// NewHTTPProvider speaks the OpenAI-compatible chat-completions
// protocol to the endpoint rooted at baseURL, authenticating with
// apiKey when non-empty.
func NewHTTPProvider(baseURL, apiKey string) Provider {
	return inference.NewHTTP(baseURL, inference.WithAPIKey(apiKey))
}

// NewRecordProvider wraps inner, recording every generation to the
// JSONL trace at path; OpenReplayProvider serves a recorded trace
// with zero live calls.
func NewRecordProvider(path string, inner Provider) (Provider, error) {
	return inference.NewRecord(path, inner)
}

// OpenReplayProvider loads the JSONL trace at path as a provider.
func OpenReplayProvider(path string) (Provider, error) { return inference.OpenReplay(path) }

// NewDispatcher builds the batched, cached front-end over a provider.
func NewDispatcher(p Provider) *Dispatcher { return inference.NewDispatcher(p) }

// NewWithProvider builds the default benchmark generating through the
// given dispatcher (e.g. a replayed real-API trace) on the
// process-wide engine. d's provider must serve every model of the
// zoo: one it lacks scores empty answers and latches the cause in
// d.Err, which callers check after a campaign.
func NewWithProvider(d *Dispatcher) *Benchmark { return core.NewVia(engine.Default(), d) }

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
// its unit test on the process-wide engine.
func ScoreAnswer(p Problem, answerYAML string) ProblemScore {
	return score.ScoreAnswerWith(engine.Default(), p, answerYAML)
}

// Postprocess extracts clean YAML from a raw LLM response using the
// paper's §3.1 policies.
func Postprocess(response string) string { return llm.Postprocess(response) }

// CleanReference returns a problem's reference answer with match labels
// stripped — the text a perfect model would produce.
func CleanReference(p Problem) string { return yamlmatch.StripLabels(p.ReferenceYAML) }
