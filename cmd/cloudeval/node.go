package main

import (
	"flag"
	"fmt"
	"sync"
	"time"

	"cloudeval/internal/dataset"
	"cloudeval/internal/engine"
	"cloudeval/internal/evalcluster"
	"cloudeval/internal/llm"
	"cloudeval/internal/miniredis"
)

// The node subcommands run one node of the distributed evaluation
// cluster over real TCP sockets: the Redis-compatible coordination
// store, a worker that executes unit tests, or a master that
// dispatches a model's jobs to the workers.

// cmdRedis serves the coordination store until SIGINT or SIGTERM.
func cmdRedis(fs *flag.FlagSet) func() error {
	addr := fs.String("addr", "127.0.0.1:6399", "listen address")
	return func() error {
		ctx := interrupted()
		srv := miniredis.NewServer()
		bound, err := srv.Listen(*addr)
		if err != nil {
			return err
		}
		fmt.Printf("node redis: listening on %s\n", bound)
		<-ctx.Done()
		srv.Close()
		return nil
	}
}

// cmdMaster generates answers with the named simulated model for the
// first -limit problems and submits them through an engine over the
// cluster executor: the same scheduler that runs in-process campaigns
// keeps -inflight jobs on the wire, dedups repeated answers through
// the engine cache, and streams results as workers report them.
func cmdMaster(fs *flag.FlagSet) func() error {
	addr := fs.String("addr", "127.0.0.1:6399", "redis address")
	modelName := fs.String("model", "gpt-4", "model to evaluate")
	limit := fs.Int("limit", 50, "number of problems to submit")
	inflight := fs.Int("inflight", 16, "jobs kept in flight on the cluster")
	timeout := fs.Duration("timeout", 5*time.Minute, "per-job result timeout")
	w := newWiring()
	w.genConcurrencyFlag(fs)
	return func() (retErr error) {
		model, ok := llm.ByName(*modelName)
		if !ok {
			return fmt.Errorf("unknown model %q", *modelName)
		}
		problems := dataset.Generate()
		if *limit > 0 && *limit < len(problems) {
			problems = problems[:*limit]
		}
		exec, err := evalcluster.NewClusterExecutor(*addr, *timeout)
		if err != nil {
			return err
		}
		c, err := w.open(engine.WithExecutor(exec), engine.WithWorkers(*inflight))
		if err != nil {
			exec.Close()
			return err
		}
		defer c.closeOnReturn(&retErr)
		eng, gen := c.ev.Engine(), c.ev.Dispatcher()
		index := make(map[string]dataset.Problem, len(problems))
		for _, p := range problems {
			index[p.ID] = p
		}
		fmt.Printf("dispatching %d jobs for %s (%d in flight); waiting for workers...\n",
			len(problems), model.Name, eng.Workers())
		// Generation streams into cluster dispatch: the pipeline keeps
		// -gen-concurrency answers being drawn while up to -inflight
		// finished jobs ride the wire, so provider latency and worker
		// round-trips overlap rather than add.
		jobs := len(problems)
		results := make([]engine.Result, jobs)
		done := 0
		var progress sync.Mutex
		engine.Pipeline(eng, jobs, gen.Concurrency(), 0,
			func(i int) engine.Job {
				return engine.Job{
					ID:        fmt.Sprintf("job-%d", i+1),
					ProblemID: problems[i].ID,
					Answer:    gen.Answer(model, problems[i], llm.GenOptions{}),
				}
			},
			func(i int, job engine.Job) {
				results[i] = eng.RunOne(job, index)
				progress.Lock()
				done++
				if done%10 == 0 || done == jobs {
					fmt.Printf("  %d/%d results in\n", done, jobs)
				}
				progress.Unlock()
			})
		passed, errored, firstErr := 0, 0, ""
		for _, r := range results {
			if r.Passed {
				passed++
			}
			if r.Error != "" {
				if errored == 0 {
					firstErr = r.Error
				}
				errored++
			}
		}
		stats := eng.Stats()
		fmt.Printf("%s: %d/%d unit tests passed (%.3f); %d executed remotely, %d cache hits\n",
			model.Name, passed, jobs, float64(passed)/float64(jobs), stats.Executed, stats.CacheHits)
		if errored > 0 {
			// Jobs that never ran (no workers, store down) are an
			// outage, not a model scoring zero.
			return fmt.Errorf("%d/%d jobs did not execute (first: %s)", errored, jobs, firstErr)
		}
		return nil
	}
}

// cmdWorker executes the jobs the master queues until -idle passes
// without one; with -store, repeated jobs are answered from disk.
func cmdWorker(fs *flag.FlagSet) func() error {
	addr := fs.String("addr", "127.0.0.1:6399", "redis address")
	name := fs.String("name", "worker", "worker name")
	idle := fs.Duration("idle", 10*time.Second, "exit after this long without jobs")
	w := newWiring()
	w.storeFlag(fs, "persistent evaluation store: repeated jobs are answered from disk")
	return func() (retErr error) {
		wk, err := evalcluster.NewWorker(*addr, *name, dataset.Generate())
		if err != nil {
			return err
		}
		defer wk.Close()
		st, err := w.openStore()
		if err != nil {
			return err
		}
		if st != nil {
			// Close is where a latched append failure surfaces.
			defer func() {
				if cerr := st.Close(); retErr == nil {
					retErr = cerr
				}
			}()
			wk.UseStore(st)
			fmt.Printf("%s: evaluation store %s (%d shards, %d records)\n", *name, w.store, st.Shards(), st.Len())
		}
		fmt.Printf("%s: processing jobs from %s\n", *name, *addr)
		n, err := wk.Run(*idle)
		fmt.Printf("%s: processed %d jobs\n", *name, n)
		return err
	}
}
