package evalcluster

import (
	"encoding/json"
	"time"

	"cloudeval/internal/dataset"
	"cloudeval/internal/engine"
	"cloudeval/internal/miniredis"
)

// Queue names in the coordination store. A master (ClusterExecutor)
// pushes job JSON onto jobQueue and a worker answers with result JSON
// on resultQueue. The schema is this package's own: both ends of the
// wire live here.
const (
	jobQueue    = "cloudeval:jobs"
	resultQueue = "cloudeval:results"
)

// job is one unit-test execution request on the wire: a candidate
// answer to run against the problem named by ProblemID.
type job struct {
	ID        string `json:"id"`
	ProblemID string `json:"problem_id"`
	Answer    string `json:"answer"`
}

// result is the outcome a worker reports for the job with the same ID.
// A non-empty Error marks a job that never ran to completion (unknown
// problem, a script that does not parse) as opposed to a test that ran
// and failed; Output is the tail of a failed test's output.
type result struct {
	ID          string  `json:"id"`
	ProblemID   string  `json:"problem_id"`
	Passed      bool    `json:"passed"`
	Output      string  `json:"output,omitempty"`
	Error       string  `json:"error,omitempty"`
	Worker      string  `json:"worker,omitempty"`
	VirtualSecs float64 `json:"virtual_secs"`
}

// Worker claims jobs, runs each through an engine of its own (a fresh
// simulated environment per execution, repeated answers served from
// memory or the store) and reports results.
type Worker struct {
	Name     string
	client   *miniredis.Client
	problems map[string]dataset.Problem
	eng      *engine.Engine
}

// NewWorker connects a worker; problems supplies the unit-test scripts
// by problem ID (workers hold the dataset locally, as in the paper).
func NewWorker(addr, name string, problems []dataset.Problem) (*Worker, error) {
	cli, err := miniredis.Dial(addr)
	if err != nil {
		return nil, err
	}
	index := make(map[string]dataset.Problem, len(problems))
	for _, p := range problems {
		index[p.ID] = p
	}
	return &Worker{Name: name, client: cli, problems: index, eng: engine.New()}, nil
}

// UseStore attaches a persistent evaluation store (store.Store) as the
// worker engine's second tier: the worker consults it before executing
// a claimed job and records fresh executions back into it, so a fleet
// node restarted against a warm store answers repeated jobs from disk
// instead of the simulated cluster. Must be called before Run.
func (w *Worker) UseStore(s engine.CacheStore) { w.eng = engine.New(engine.WithStore(s)) }

// Close releases the worker's connection.
func (w *Worker) Close() error { return w.client.Close() }

// Run processes jobs until the queue stays empty for idleTimeout. It
// returns the number of jobs processed.
func (w *Worker) Run(idleTimeout time.Duration) (int, error) {
	processed := 0
	for {
		_, payload, ok, err := w.client.BRPop(idleTimeout, jobQueue)
		if err != nil {
			return processed, err
		}
		if !ok {
			return processed, nil // idle: queue drained
		}
		var j job
		if err := json.Unmarshal([]byte(payload), &j); err != nil {
			continue // poison message; skip
		}
		data, err := json.Marshal(w.execute(j))
		if err != nil {
			return processed, err
		}
		if err := w.client.LPush(resultQueue, string(data)); err != nil {
			return processed, err
		}
		processed++
	}
}

// execute runs one claimed job through the worker's engine. An unknown
// problem or a script that does not parse comes back with Error set,
// and the engine stores only what ran.
func (w *Worker) execute(j job) result {
	r := result{ID: j.ID, ProblemID: j.ProblemID, Worker: w.Name}
	p, ok := w.problems[j.ProblemID]
	if !ok {
		r.Error = "unknown problem " + j.ProblemID
		return r
	}
	res := w.eng.UnitTest(p, j.Answer)
	r.Passed = res.Passed
	r.VirtualSecs = res.VirtualTime.Seconds()
	if !res.Passed {
		r.Output = tail(res.Output, 400)
	}
	if res.Err != nil {
		r.Error = res.Err.Error()
	}
	return r
}

func tail(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[len(s)-n:]
}
