// cluster-eval runs the distributed evaluation platform for real: an
// in-process Redis-compatible server, four workers draining the queue
// over TCP, and the evaluation engine dispatching one model's answers
// through the cluster executor — the same scheduler and job type the
// in-process campaigns use, pointed at real sockets. It then contrasts
// the measured parallelism with the Figure 5 discrete-event model.
//
// Run: go run ./examples/cluster-eval
package main

import (
	"fmt"
	"sync"
	"time"

	"cloudeval/internal/dataset"
	"cloudeval/internal/engine"
	"cloudeval/internal/evalcluster"
	"cloudeval/internal/inference"
	"cloudeval/internal/llm"
	"cloudeval/internal/miniredis"
)

func main() {
	srv := miniredis.NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	defer srv.Close()
	fmt.Printf("coordination store listening on %s\n", addr)

	problems := dataset.Generate()[:80]
	model, _ := llm.ByName("gpt-4")

	// The master side is just an engine with the cluster executor:
	// identical jobs, scheduler and cache as the in-process path.
	exec, err := evalcluster.NewClusterExecutor(addr, time.Minute)
	if err != nil {
		panic(err)
	}
	const workers = 4
	eng := engine.New(engine.WithExecutor(exec), engine.WithWorkers(2*workers))
	defer eng.Close()

	gen := inference.NewDispatcher(inference.NewSim(llm.Models))
	index := make(map[string]dataset.Problem, len(problems))
	jobs := make([]engine.Job, len(problems))
	for i, p := range problems {
		index[p.ID] = p
		jobs[i] = engine.Job{
			ID:        fmt.Sprintf("job-%d", i+1),
			ProblemID: p.ID,
			Answer:    gen.Answer(model, p, llm.GenOptions{}),
		}
	}

	var wg sync.WaitGroup
	counts := make([]int, workers)
	for i := 0; i < workers; i++ {
		w, err := evalcluster.NewWorker(addr, fmt.Sprintf("worker-%d", i), problems)
		if err != nil {
			panic(err)
		}
		wg.Add(1)
		go func(i int, w *evalcluster.Worker) {
			defer wg.Done()
			defer w.Close()
			n, _ := w.Run(500 * time.Millisecond)
			counts[i] = n
		}(i, w)
	}

	fmt.Printf("dispatching %d jobs for %s over TCP\n", len(jobs), model.Name)
	results := eng.Run(jobs, index)
	wg.Wait()

	passed := 0
	for _, r := range results {
		if r.Passed {
			passed++
		}
	}
	stats := eng.Stats()
	fmt.Printf("results: %d/%d unit tests passed (%d remote executions, %d cache hits)\n",
		passed, len(results), stats.Executed, stats.CacheHits)
	for i, n := range counts {
		fmt.Printf("  worker-%d processed %d jobs\n", i, n)
	}

	// Compare with the Figure 5 analytic model for the same workload,
	// its reference runs measured on an in-process engine (the workers
	// above have drained).
	simJobs := evalcluster.JobsFromProblems(engine.New(), problems)
	for _, w := range []int{1, 4} {
		r := evalcluster.Simulate(simJobs, evalcluster.DefaultSimConfig(w, true))
		fmt.Printf("Figure-5 model: %d worker(s), shared cache -> %.2f h of campaign time\n",
			w, r.Total.Hours())
	}
}
