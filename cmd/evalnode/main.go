// Command evalnode runs one node of the distributed evaluation cluster
// over real TCP sockets: the Redis-compatible coordination store, a
// master that dispatches jobs, or a worker that executes unit tests.
//
//	evalnode redis  -addr 127.0.0.1:6399
//	evalnode worker -addr 127.0.0.1:6399 -name worker-1 [-store eval.store]
//	evalnode master -addr 127.0.0.1:6399 -model gpt-4 -limit 50
//
// The master generates answers with the named simulated model for the
// first -limit problems and submits them through the evaluation engine
// backed by the cluster executor: the same work-stealing scheduler that
// powers in-process campaigns keeps -inflight jobs on the wire, dedups
// repeated answers through the engine cache, and streams results as
// workers report them.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync"
	"time"

	"cloudeval/internal/dataset"
	"cloudeval/internal/engine"
	"cloudeval/internal/evalcluster"
	"cloudeval/internal/inference"
	"cloudeval/internal/llm"
	"cloudeval/internal/miniredis"
	"cloudeval/internal/store"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: evalnode <redis|master|worker> [flags]")
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "redis":
		err = runRedis(os.Args[2:])
	case "master":
		err = runMaster(os.Args[2:])
	case "worker":
		err = runWorker(os.Args[2:])
	default:
		err = fmt.Errorf("unknown role %q", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "evalnode:", err)
		os.Exit(1)
	}
}

func runRedis(args []string) error {
	fs := flag.NewFlagSet("redis", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:6399", "listen address")
	if err := fs.Parse(args); err != nil {
		return err
	}
	srv := miniredis.NewServer()
	bound, err := srv.Listen(*addr)
	if err != nil {
		return err
	}
	fmt.Printf("evalnode redis listening on %s\n", bound)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	srv.Close()
	return nil
}

func runMaster(args []string) error {
	fs := flag.NewFlagSet("master", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:6399", "redis address")
	modelName := fs.String("model", "gpt-4", "model to evaluate")
	limit := fs.Int("limit", 50, "number of problems to submit")
	inflight := fs.Int("inflight", 16, "jobs kept in flight on the cluster")
	genConcurrency := fs.Int("gen-concurrency", -1, "max generations in flight (0 = unbounded; -1 = provider default: sim/replay unbounded, http 64)")
	timeout := fs.Duration("timeout", 5*time.Minute, "per-job result timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
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
	eng := engine.New(engine.WithExecutor(exec), engine.WithWorkers(*inflight))
	defer eng.Close()

	// Generation routes through the inference dispatcher — the same
	// provider seam the in-process campaigns use, so a master could
	// just as well replay a recorded trace.
	var dopts []inference.DispatchOption
	if *genConcurrency >= 0 {
		dopts = append(dopts, inference.WithConcurrency(*genConcurrency))
	}
	gen := inference.NewDispatcher(inference.NewSim(llm.Models), dopts...)
	index := make(map[string]dataset.Problem, len(problems))
	for _, p := range problems {
		index[p.ID] = p
	}
	fmt.Printf("dispatching %d jobs for %s (%d in flight); waiting for workers...\n",
		len(problems), model.Name, eng.Workers())
	// Generation streams into cluster dispatch instead of completing
	// first: the pipeline keeps -gen-concurrency answers being drawn
	// while up to -inflight finished jobs ride the wire, so provider
	// latency and worker round-trips overlap rather than add.
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
			r := eng.RunOne(job, index)
			results[i] = r
			progress.Lock()
			done++
			if done%10 == 0 || done == jobs {
				fmt.Printf("  %d/%d results in\n", done, jobs)
			}
			progress.Unlock()
		})
	passed, errored := 0, 0
	for _, r := range results {
		if r.Passed {
			passed++
		}
		if r.Error != "" {
			errored++
		}
	}
	stats := eng.Stats()
	fmt.Printf("%s: %d/%d unit tests passed (%.3f); %d executed remotely, %d cache hits\n",
		model.Name, passed, len(results), float64(passed)/float64(len(results)),
		stats.Executed, stats.CacheHits)
	if errored > 0 {
		// Distinguish an outage from a model scoring zero: jobs that
		// never ran (no workers, store down) are an error, not a score.
		return fmt.Errorf("%d/%d jobs did not execute (first: %s)", errored, len(results), firstError(results))
	}
	return nil
}

func firstError(results []engine.Result) string {
	for _, r := range results {
		if r.Error != "" {
			return r.Error
		}
	}
	return ""
}

func runWorker(args []string) (retErr error) {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:6399", "redis address")
	name := fs.String("name", "worker", "worker name")
	idle := fs.Duration("idle", 10*time.Second, "exit after this long without jobs")
	storePath := fs.String("store", "", "persistent evaluation store: repeated jobs are answered from disk")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := evalcluster.NewWorker(*addr, *name, dataset.Generate())
	if err != nil {
		return err
	}
	defer w.Close()
	if *storePath != "" {
		st, err := store.Open(*storePath)
		if err != nil {
			return err
		}
		// Close is where a latched append failure surfaces.
		defer func() {
			if cerr := st.Close(); retErr == nil {
				retErr = cerr
			}
		}()
		w.UseStore(st)
		fmt.Printf("%s: evaluation store %s (%d shards, %d records)\n", *name, *storePath, st.Shards(), st.Len())
	}
	fmt.Printf("%s: processing jobs from %s\n", *name, *addr)
	n, err := w.Run(*idle)
	fmt.Printf("%s: processed %d jobs\n", *name, n)
	return err
}
