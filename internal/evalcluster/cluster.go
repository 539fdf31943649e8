package evalcluster

import (
	"encoding/json"
	"time"

	"cloudeval/internal/dataset"
	"cloudeval/internal/engine"
	"cloudeval/internal/miniredis"
)

// Queue names in the coordination store. A master pushes engine.Job
// JSON onto jobQueue and a worker answers with engine.Result JSON on
// resultQueue, so the distributed and in-process paths share one
// schema.
const (
	jobQueue    = "cloudeval:jobs"
	resultQueue = "cloudeval:results"
)

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
		var job engine.Job
		if err := json.Unmarshal([]byte(payload), &job); err != nil {
			continue // poison message; skip
		}
		// An unknown problem or a script that does not parse comes back
		// with Error set, and the engine stores only what ran.
		res := w.eng.RunOne(job, w.problems)
		res.Worker = w.Name
		res.Output = tail(res.Output, 400)
		data, err := json.Marshal(res)
		if err != nil {
			return processed, err
		}
		if err := w.client.LPush(resultQueue, string(data)); err != nil {
			return processed, err
		}
		processed++
	}
}

func tail(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[len(s)-n:]
}
