package evalcluster

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"cloudeval/internal/dataset"
	"cloudeval/internal/engine"
	"cloudeval/internal/memo"
	"cloudeval/internal/miniredis"
	"cloudeval/internal/unittest"
)

// Queue and key names in the coordination store.
const (
	jobQueue    = "cloudeval:jobs"
	resultQueue = "cloudeval:results"
	jobPrefix   = "cloudeval:job:"
)

// WireJob is the JSON payload a master enqueues for workers — the
// engine's job type, so the distributed and in-process paths share one
// schema.
type WireJob = engine.Job

// WireResult is the JSON payload a worker reports back — the engine's
// result type.
type WireResult = engine.Result

// Master dispatches unit-test jobs through the store and collects
// results. It is safe for concurrent use; submissions serialize over
// one connection.
type Master struct {
	mu     sync.Mutex
	client *miniredis.Client
	nextID int
}

// NewMaster connects a master to the coordination store.
func NewMaster(addr string) (*Master, error) {
	cli, err := miniredis.Dial(addr)
	if err != nil {
		return nil, err
	}
	if err := cli.Ping(); err != nil {
		return nil, err
	}
	return &Master{client: cli}, nil
}

// Close releases the master's connection.
func (m *Master) Close() error { return m.client.Close() }

// Submit enqueues one answer for evaluation and returns the job id.
func (m *Master) Submit(problemID, answer string) (string, error) {
	m.mu.Lock()
	m.nextID++
	id := fmt.Sprintf("job-%d", m.nextID)
	m.mu.Unlock()
	return id, m.SubmitJob(engine.Job{ID: id, ProblemID: problemID, Answer: answer})
}

// SubmitJob enqueues a fully formed job (the caller owns ID
// uniqueness).
func (m *Master) SubmitJob(job engine.Job) error {
	payload, err := json.Marshal(job)
	if err != nil {
		return err
	}
	if err := m.client.HSet(jobPrefix+job.ID, "status", "queued"); err != nil {
		return err
	}
	return m.client.LPush(jobQueue, string(payload))
}

// Collect blocks for up to timeout gathering n results.
func (m *Master) Collect(n int, timeout time.Duration) ([]WireResult, error) {
	deadline := time.Now().Add(timeout)
	out := make([]WireResult, 0, n)
	for len(out) < n {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return out, fmt.Errorf("evalcluster: collected %d/%d results before timeout", len(out), n)
		}
		_, payload, ok, err := m.client.BRPop(remaining, resultQueue)
		if err != nil {
			return out, err
		}
		if !ok {
			return out, fmt.Errorf("evalcluster: collected %d/%d results before timeout", len(out), n)
		}
		var res WireResult
		if err := json.Unmarshal([]byte(payload), &res); err != nil {
			return out, fmt.Errorf("evalcluster: bad result payload: %w", err)
		}
		out = append(out, res)
	}
	return out, nil
}

// Pending reports queued jobs.
func (m *Master) Pending() (int, error) { return m.client.LLen(jobQueue) }

// Worker claims jobs, runs unit tests in a fresh simulated environment
// per job, and reports results.
type Worker struct {
	Name    string
	client  *miniredis.Client
	lookup  map[string]dataset.Problem
	store   engine.CacheStore
	stopped chan struct{}
}

// NewWorker connects a worker; problems supplies the unit-test scripts
// by problem ID (workers hold the dataset locally, as in the paper).
func NewWorker(addr, name string, problems []dataset.Problem) (*Worker, error) {
	cli, err := miniredis.Dial(addr)
	if err != nil {
		return nil, err
	}
	lookup := make(map[string]dataset.Problem, len(problems))
	for _, p := range problems {
		lookup[p.ID] = p
	}
	return &Worker{Name: name, client: cli, lookup: lookup, stopped: make(chan struct{})}, nil
}

// UseStore attaches a persistent evaluation store (store.Store): the
// worker consults it before executing a claimed job and records fresh
// executions back into it, so a fleet node restarted against a warm
// store answers repeated jobs from disk instead of the simulated
// cluster. Must be called before Run.
func (w *Worker) UseStore(s engine.CacheStore) { w.store = s }

// Close releases the worker's connection.
func (w *Worker) Close() error { return w.client.Close() }

// Stop makes Run return after its current job.
func (w *Worker) Stop() {
	select {
	case <-w.stopped:
	default:
		close(w.stopped)
	}
}

// Run processes jobs until Stop is called or the queue stays empty for
// idleTimeout. It returns the number of jobs processed.
func (w *Worker) Run(idleTimeout time.Duration) (int, error) {
	processed := 0
	for {
		select {
		case <-w.stopped:
			return processed, nil
		default:
		}
		_, payload, ok, err := w.client.BRPop(idleTimeout, jobQueue)
		if err != nil {
			return processed, err
		}
		if !ok {
			return processed, nil // idle: queue drained
		}
		var job WireJob
		if err := json.Unmarshal([]byte(payload), &job); err != nil {
			continue // poison message; skip
		}
		res := w.execute(job)
		data, err := json.Marshal(res)
		if err != nil {
			return processed, err
		}
		if err := w.client.HSet(jobPrefix+job.ID, "status", "done", "passed", fmt.Sprint(res.Passed)); err != nil {
			return processed, err
		}
		if err := w.client.LPush(resultQueue, string(data)); err != nil {
			return processed, err
		}
		processed++
	}
}

func (w *Worker) execute(job WireJob) WireResult {
	res := WireResult{ID: job.ID, ProblemID: job.ProblemID, Worker: w.Name}
	p, ok := w.lookup[job.ProblemID]
	if !ok {
		res.Output = "unknown problem " + job.ProblemID
		return res
	}
	var testDigest, answerDigest [sha256.Size]byte
	if w.store != nil {
		testDigest = engine.TestDigest(p)
		answerDigest = memo.Digest(job.Answer)
		if r, ok := w.store.Get(testDigest, answerDigest); ok {
			res.Passed = r.Passed
			res.VirtualSecs = r.VirtualTime.Seconds()
			res.CacheHit = true
			if !r.Passed {
				res.Output = tail(r.Output, 400)
			}
			return res
		}
	}
	r := unittest.Run(p, job.Answer)
	if w.store != nil {
		w.store.Put(testDigest, answerDigest, r)
	}
	res.Passed = r.Passed
	res.VirtualSecs = r.VirtualTime.Seconds()
	if !r.Passed {
		res.Output = tail(r.Output, 400)
	}
	return res
}

func tail(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[len(s)-n:]
}
