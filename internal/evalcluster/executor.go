package evalcluster

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cloudeval/internal/dataset"
	"cloudeval/internal/engine"
	"cloudeval/internal/miniredis"
	"cloudeval/internal/unittest"
)

// ClusterExecutor drives engine jobs through the master/worker wire
// protocol: each RunUnitTest submits a job to the coordination store
// and blocks until a worker reports the matching result. It implements
// engine.Executor, so the same scheduler that runs the in-process pool
// can fan out over TCP; the engine keeps as many jobs in flight as it
// has scheduler workers.
type ClusterExecutor struct {
	submit  *miniredis.Client
	collect *miniredis.Client
	timeout time.Duration

	nextID atomic.Int64

	mu      sync.Mutex
	waiters map[string]chan engine.Result

	done chan struct{}
	wg   sync.WaitGroup
}

// NewClusterExecutor connects to the coordination store at addr. It
// uses one connection for submissions and a second for the result
// collector, so a blocked collect never stalls a submit. timeout bounds
// how long one job may wait for a worker (0 means a 2-minute default).
func NewClusterExecutor(addr string, timeout time.Duration) (*ClusterExecutor, error) {
	submit, err := miniredis.Dial(addr)
	if err != nil {
		return nil, err
	}
	if err := submit.Ping(); err != nil {
		submit.Close()
		return nil, err
	}
	collect, err := miniredis.Dial(addr)
	if err != nil {
		submit.Close()
		return nil, err
	}
	if timeout <= 0 {
		timeout = 2 * time.Minute
	}
	e := &ClusterExecutor{
		submit:  submit,
		collect: collect,
		timeout: timeout,
		waiters: make(map[string]chan engine.Result),
		done:    make(chan struct{}),
	}
	e.wg.Add(1)
	go e.collector()
	return e, nil
}

// Name implements engine.Executor.
func (e *ClusterExecutor) Name() string { return "cluster" }

// RunUnitTest implements engine.Executor: the unit test executes on
// whichever cluster worker claims the job. Problem bodies stay with the
// workers (as in the paper); only the ID and answer cross the wire.
// Missing workers, timeouts and a job the worker could not run (an
// unknown problem, a script that does not parse) surface through the
// result's Err field.
func (e *ClusterExecutor) RunUnitTest(p dataset.Problem, answer string) unittest.Result {
	id := fmt.Sprintf("xjob-%d", e.nextID.Add(1))
	ch := make(chan engine.Result, 1)
	e.mu.Lock()
	e.waiters[id] = ch
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		delete(e.waiters, id)
		e.mu.Unlock()
	}()

	payload, err := json.Marshal(engine.Job{ID: id, ProblemID: p.ID, Answer: answer})
	if err == nil {
		err = e.submit.LPush(jobQueue, string(payload))
	}
	if err != nil {
		return unittest.Result{Err: fmt.Errorf("evalcluster: submit: %w", err)}
	}
	select {
	case res := <-ch:
		r := unittest.Result{
			Passed:      res.Passed,
			Output:      res.Output,
			VirtualTime: time.Duration(res.VirtualSecs * float64(time.Second)),
		}
		if res.Error != "" {
			r.Err = fmt.Errorf("evalcluster: %s: %s", res.Worker, res.Error)
		}
		return r
	case <-time.After(e.timeout):
		return unittest.Result{Err: fmt.Errorf("evalcluster: no result for %s within %v", id, e.timeout)}
	case <-e.done:
		return unittest.Result{Err: fmt.Errorf("evalcluster: executor closed")}
	}
}

// collector drains the result queue and routes each result to the
// goroutine waiting on its job ID.
func (e *ClusterExecutor) collector() {
	defer e.wg.Done()
	for {
		select {
		case <-e.done:
			return
		default:
		}
		_, payload, ok, err := e.collect.BRPop(500*time.Millisecond, resultQueue)
		if err != nil {
			return // connection gone; waiters time out
		}
		if !ok {
			continue
		}
		var res engine.Result
		if err := json.Unmarshal([]byte(payload), &res); err != nil {
			continue
		}
		e.mu.Lock()
		ch := e.waiters[res.ID]
		e.mu.Unlock()
		if ch != nil {
			ch <- res
		}
	}
}

// Close implements engine.Executor, releasing both connections and
// stopping the collector.
func (e *ClusterExecutor) Close() error {
	select {
	case <-e.done:
	default:
		close(e.done)
	}
	err := e.collect.Close()
	e.wg.Wait()
	if serr := e.submit.Close(); err == nil {
		err = serr
	}
	return err
}
