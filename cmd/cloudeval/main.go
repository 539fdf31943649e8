// Command cloudeval is the benchmark's CLI: it prints dataset
// statistics, runs the model zoo, and regenerates every table and
// figure of the paper.
//
// Usage:
//
//	cloudeval dataset            # Table 2 statistics
//	cloudeval bench              # Table 4 zero-shot leaderboard
//	cloudeval bench -store eval.store      # ... with the persistent store (warm reruns execute nothing)
//	cloudeval bench -record gen.trace      # ... recording every generation to a JSONL trace
//	cloudeval bench -replay gen.trace      # ... replaying generations from the trace (zero live calls)
//	cloudeval bench -provider http:http://127.0.0.1:8000/v1   # ... against a live OpenAI-compatible API
//	cloudeval figures -id table5 # one experiment by ID
//	cloudeval figures -all       # every table and figure
//	cloudeval campaign -dir run1 # resumable checkpointed campaign
//	cloudeval models             # the model zoo and the configured provider
//	cloudeval cost               # Table 3 cost breakdown
//	cloudeval cluster -workers 64 -cache   # one Figure 5 point
//	cloudeval eval -problem k8s-pod-001 -f answer.yaml
//	cloudeval loadgen -n 300 -concurrency 8 -out loadgen.json   # drive the service tier under load
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"cloudeval"
	"cloudeval/internal/core"
	"cloudeval/internal/cost"
	"cloudeval/internal/dataset"
	"cloudeval/internal/engine"
	"cloudeval/internal/evalcluster"
	"cloudeval/internal/inference"
	"cloudeval/internal/llm"
	"cloudeval/internal/score"
	"cloudeval/internal/store"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "dataset":
		err = cmdDataset()
	case "bench":
		err = cmdBench(args)
	case "figures":
		err = cmdFigures(args)
	case "campaign":
		err = cmdCampaign(args)
	case "models":
		err = cmdModels(args)
	case "cost":
		err = cmdCost()
	case "cluster":
		err = cmdCluster(args)
	case "eval":
		err = cmdEval(args)
	case "loadgen":
		err = cmdLoadgen(args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "cloudeval: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cloudeval:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `cloudeval - the CloudEval-YAML benchmark

Commands:
  dataset             print dataset statistics (Table 2) and augmentation stats (Table 1)
  bench [-store F] [-cpuprofile F] [-memprofile F] [-mutexprofile F] [-blockprofile F]
                      run the zero-shot benchmark (Table 4), optionally profiled
  figures -id <id>    regenerate one experiment (table1..table9, figure5..figure9)
  figures -all        regenerate every table and figure (both accept -store F)
  campaign -dir <d>   run a resumable checkpointed campaign [-ids a,b,...] [-store F]
  models              list the model zoo and the configured inference provider
  cost                print the running-cost breakdown (Table 3)
  cluster [-workers N] [-cache]   simulate one evaluation campaign (Figure 5 point)
  eval -problem <id> -f <file>    run one answer through the full scoring pipeline
  loadgen [-addr URL] [-n N] [-qps Q] [-concurrency C] [-tenants a,b]
          [-trace F | -seed S [-record-trace F]] [-warm] [-out report.json]
                      drive a live (-addr) or in-process cloudevald under a
                      synthesized or replayed request mix; the JSON report
                      (throughput, p50/p95/p99, error classes) feeds
                      benchguard's latency gates

-store attaches the persistent evaluation store at F: unit-test
results and generations persist across invocations, so a warm re-run
neither executes nor generates anything. Payloads live on disk behind
an offset index, so resident memory is the index's regardless of
store size.

bench, figures, campaign and models take inference provider flags:
  -provider sim              the deterministic model zoo (default)
  -provider http:<base-url>  a live OpenAI-compatible endpoint
                             (API key from $CLOUDEVAL_API_KEY)
  -replay F                  serve every generation from the JSONL trace at F
                             (zero live calls; overrides -provider)
  -record F                  record every live generation to the trace at F
  -gen-concurrency N         max generations in flight (0 = unbounded;
                             default -1 = provider default: sim/replay
                             unbounded, http 64). Campaigns stream this
                             generation stage into the CPU-sized
                             execution pool, so N is how much provider
                             latency can hide behind unit-test execution.
`)
}

// providerFlags carries the inference provider selection shared by
// bench, figures, campaign and models.
type providerFlags struct {
	provider       *string
	record         *string
	replay         *string
	genConcurrency *int
}

func addProviderFlags(fs *flag.FlagSet) providerFlags {
	return providerFlags{
		provider:       fs.String("provider", "sim", `inference provider: "sim" or "http:<base-url>"`),
		record:         fs.String("record", "", "record generations to this JSONL trace file"),
		replay:         fs.String("replay", "", "replay generations from this JSONL trace file"),
		genConcurrency: fs.Int("gen-concurrency", -1, "max generations in flight (0 = unbounded; -1 = provider default: sim/replay unbounded, http 64)"),
	}
}

// storeFlags carries the persistent-store selection shared by bench,
// figures and campaign.
type storeFlags struct {
	path *string
}

func addStoreFlags(fs *flag.FlagSet) storeFlags {
	return storeFlags{
		path: fs.String("store", "", "persistent evaluation store path"),
	}
}

// dispatchOptions translates the flag values into dispatcher options:
// -gen-concurrency -1 defers to the provider default, anything else
// overrides it (0 lifts the cap entirely).
func (pf providerFlags) dispatchOptions() []inference.DispatchOption {
	if *pf.genConcurrency >= 0 {
		return []inference.DispatchOption{inference.WithConcurrency(*pf.genConcurrency)}
	}
	return nil
}

// configured reports whether any non-default provider flag is set.
func (pf providerFlags) configured() bool {
	return *pf.provider != "sim" || *pf.record != "" || *pf.replay != ""
}

// open builds the provider the flags select: replay trace > live
// provider, optionally wrapped in a recorder.
func (pf providerFlags) open() (inference.Provider, error) {
	return inference.OpenSpec(*pf.provider, *pf.record, *pf.replay, os.Getenv("CLOUDEVAL_API_KEY"))
}

func cmdDataset() error {
	b := cloudeval.New()
	fmt.Println("== Table 1: practical data augmentation ==")
	fmt.Println(b.Table1())
	fmt.Println("== Table 2: dataset statistics ==")
	fmt.Println(b.Table2())
	return nil
}

// newBench builds a benchmark over the provider the flags select,
// optionally backed by the persistent evaluation store -store names
// (which then caches both unit-test results and generations). The
// returned store is nil when no store is selected; the closer flushes
// the trace/store and surfaces any latched generation error, and must
// run after the last evaluation.
func newBench(sf storeFlags, pf providerFlags) (*cloudeval.Benchmark, *store.Store, func() error, error) {
	prov, err := pf.open()
	if err != nil {
		return nil, nil, nil, err
	}
	dopts := pf.dispatchOptions()
	var eopts []engine.Option
	var st *store.Store
	if *sf.path != "" {
		st, err = store.Open(*sf.path)
		if err != nil {
			prov.Close()
			return nil, nil, nil, err
		}
		dopts = append(dopts, inference.WithGenStore(st))
		eopts = append(eopts, engine.WithStore(st))
	}
	disp := inference.NewDispatcher(prov, dopts...)
	closer := func() error {
		err := disp.Close()
		if st != nil {
			if serr := st.Close(); err == nil {
				err = serr
			}
		}
		if gerr := disp.Err(); err == nil {
			err = gerr
		}
		return err
	}
	return core.New(score.NewEvaluator(engine.New(eopts...), disp), dataset.Generate(), llm.Models), st, closer, nil
}

// reportStore prints the persistent store's shard layout and batching
// ratio, and the two in-memory caches above it — the same counters GET
// /v1/stats serves — so contention regressions and a cache that has
// started evicting show up in a plain bench run too.
func reportStore(b *cloudeval.Benchmark, st *store.Store) {
	ratio := 0.0
	if f := st.Flushes(); f > 0 {
		ratio = float64(st.Appended()) / float64(f)
	}
	fmt.Fprintf(os.Stderr, "store: %d shards, %d results, %d generations, %.2f frames/flush\n",
		st.Shards(), st.Len(), st.GenLen(), ratio)
	perShard := st.ShardStats()
	counts := make([]string, len(perShard))
	for i, sh := range perShard {
		counts[i] = fmt.Sprintf("%d", sh.Records+sh.Generations)
	}
	fmt.Fprintf(os.Stderr, "store: per-shard records [%s]\n", strings.Join(counts, " "))
	op := st.LastOpen()
	fmt.Fprintf(os.Stderr, "store: open %.1fms — %d frames scanned (%d legacy JSON), index ~%.1f MiB resident\n",
		float64(op.Duration.Microseconds())/1e3, op.ScannedFrames, op.LegacyFrames, float64(st.ResidentBytes())/(1<<20))
	es, gs := b.Evaluator().Engine().Stats(), b.Evaluator().Dispatcher().Stats()
	fmt.Fprintf(os.Stderr, "caches: engine %d entries, %.1f MiB, %d evictions; inference %d entries, %.1f MiB, %d evictions\n",
		es.CacheEntries, float64(es.CacheBytes)/(1<<20), es.CacheEvictions,
		gs.CacheEntries, float64(gs.CacheBytes)/(1<<20), gs.CacheEvictions)
}

// reportGeneration prints the dispatcher counters and the metered
// inference cost whenever a non-default provider or a store is in
// play — the observability end of the provider layer.
func reportGeneration(b *cloudeval.Benchmark) {
	disp := b.Evaluator().Dispatcher()
	stats := disp.Stats()
	fmt.Fprintf(os.Stderr, "inference (%s): %d generated, %d memory hits, %d store hits, %d errors\n",
		disp.Provider().Name(), stats.Generated, stats.CacheHits, stats.StoreHits, stats.Errors)
	if stats.Usage.Total() > 0 {
		fmt.Fprintf(os.Stderr, "tokens: %d prompt + %d completion; metered cost: $%.2f at %s rates\n",
			stats.Usage.PromptTokens, stats.Usage.CompletionTokens,
			cost.MeteredCost(cost.InferenceGPT35, stats.Usage.PromptTokens, stats.Usage.CompletionTokens),
			cost.InferenceGPT35.Name)
	}
}

func cmdBench(args []string) (retErr error) {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	sf := addStoreFlags(fs)
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the campaign here")
	memProfile := fs.String("memprofile", "", "write an allocation profile here after the campaign")
	mutexProfile := fs.String("mutexprofile", "", "write a mutex-contention profile here after the campaign")
	blockProfile := fs.String("blockprofile", "", "write a blocking profile here after the campaign")
	pf := addProviderFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile, *mutexProfile, *blockProfile)
	if err != nil {
		return err
	}
	defer stopProfiles()
	b, st, closeBench, err := newBench(sf, pf)
	if err != nil {
		return err
	}
	// Deferred so an error mid-campaign still flushes the trace
	// recorder and closes the store.
	defer func() {
		if cerr := closeBench(); retErr == nil {
			retErr = cerr
		}
	}()
	fmt.Println(b.Table4())
	if st != nil {
		stats := b.Evaluator().Engine().Stats()
		fmt.Printf("engine: %d executed, %d memory hits, %d store hits\n",
			stats.Executed, stats.CacheHits, stats.StoreHits)
		reportStore(b, st)
	}
	if st != nil || pf.configured() {
		reportGeneration(b)
	}
	return nil
}

// startProfiles starts a CPU profile and arranges heap, mutex, and
// block snapshots, so perf work on the evaluation path begins from a
// profile instead of a guess (see CONTRIBUTING.md "Profiling the
// evaluation path" and "Profiling contention"). Mutex and block
// sampling is enabled only when the matching path is set — both add
// per-contention overhead that would distort the CPU profile. The
// returned stop function is safe to call once whether or not profiling
// is active.
func startProfiles(cpuPath, memPath, mutexPath, blockPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	if mutexPath != "" {
		// Sample every contention event: the campaign is short-lived,
		// so full sampling beats statistical fidelity concerns.
		runtime.SetMutexProfileFraction(1)
	}
	if blockPath != "" {
		runtime.SetBlockProfileRate(1)
	}
	writeLookup := func(name, path string) {
		if path == "" {
			return
		}
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cloudeval: %sprofile: %v\n", name, err)
			return
		}
		defer f.Close()
		if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
			fmt.Fprintf(os.Stderr, "cloudeval: %sprofile: %v\n", name, err)
			return
		}
		fmt.Fprintf(os.Stderr, "cloudeval: wrote %s profile to %s\n", name, path)
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
			fmt.Fprintf(os.Stderr, "cloudeval: wrote CPU profile to %s\n", cpuPath)
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "cloudeval: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush recent allocations into the profile
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "cloudeval: memprofile:", err)
				return
			}
			fmt.Fprintf(os.Stderr, "cloudeval: wrote allocation profile to %s\n", memPath)
		}
		writeLookup("mutex", mutexPath)
		writeLookup("block", blockPath)
	}, nil
}

func cmdFigures(args []string) (retErr error) {
	fs := flag.NewFlagSet("figures", flag.ExitOnError)
	id := fs.String("id", "", "experiment id (table1..table9, figure5..figure9)")
	all := fs.Bool("all", false, "run every experiment")
	sf := addStoreFlags(fs)
	pf := addProviderFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	b, _, closeBench, err := newBench(sf, pf)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := closeBench(); retErr == nil {
			retErr = cerr
		}
	}()
	if *all {
		return b.RunAll(os.Stdout)
	}
	gen, ok := b.Experiments()[strings.ToLower(*id)]
	if !ok {
		return fmt.Errorf("unknown experiment %q (known: %s)", *id, strings.Join(core.ExperimentIDs, ", "))
	}
	fmt.Println(gen())
	return nil
}

func cmdCampaign(args []string) (retErr error) {
	fs := flag.NewFlagSet("campaign", flag.ExitOnError)
	dir := fs.String("dir", "", "campaign directory (checkpoints + outputs)")
	idsFlag := fs.String("ids", "", "comma-separated experiment ids (default: all)")
	sf := addStoreFlags(fs)
	pf := addProviderFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("campaign requires -dir")
	}
	var ids []string
	if *idsFlag != "" {
		for _, id := range strings.Split(*idsFlag, ",") {
			ids = append(ids, strings.ToLower(strings.TrimSpace(id)))
		}
	}
	b, st, closeBench, err := newBench(sf, pf)
	if err != nil {
		return err
	}
	// Deferred: a campaign that fails mid-run (dead endpoint, trace
	// miss) must still flush the recorded-so-far trace and close the
	// store cleanly.
	defer func() {
		if cerr := closeBench(); retErr == nil {
			retErr = cerr
		}
	}()
	report, err := b.RunCampaign(*dir, ids, os.Stdout, nil, nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "campaign: %d ran, %d resumed from checkpoint\n",
		len(report.Ran), len(report.Skipped))
	if st != nil {
		reportStore(b, st)
	}
	if st != nil || pf.configured() {
		reportGeneration(b)
	}
	return nil
}

// cmdModels lists the model zoo in ranking order and describes the
// provider the flags configure.
func cmdModels(args []string) error {
	fs := flag.NewFlagSet("models", flag.ExitOnError)
	pf := addProviderFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// models never generates, so -record must not truncate an existing
	// trace just to print the listing: describe the provider without
	// the recorder wrapper.
	prov, err := inference.OpenSpec(*pf.provider, "", *pf.replay, os.Getenv("CLOUDEVAL_API_KEY"))
	if err != nil {
		return err
	}
	defer prov.Close()
	fmt.Printf("%-4s %-24s %-5s %-5s %-8s\n", "Rank", "Model", "Size", "Open", "English")
	for i, m := range llm.Models {
		open, english := "N", "any"
		if m.OpenSource {
			open = "Y"
		}
		if m.EnglishOnly {
			english = "only"
		}
		fmt.Printf("%-4d %-24s %-5s %-5s %-8s\n", i+1, m.Name, m.Size, open, english)
	}
	fmt.Printf("\nprovider: %s", prov.Name())
	switch p := prov.(type) {
	case *inference.Sim:
		fmt.Printf(" (%d simulated models)", len(llm.Models))
	case *inference.Replay:
		fmt.Printf(" (%d recorded generations from %s)", p.Len(), *pf.replay)
	}
	fmt.Println()
	return nil
}

func cmdCost() error {
	b := cloudeval.New()
	fmt.Println(b.Table3())
	return nil
}

func cmdCluster(args []string) error {
	fs := flag.NewFlagSet("cluster", flag.ExitOnError)
	workers := fs.Int("workers", 64, "worker count")
	cache := fs.Bool("cache", false, "enable the shared pull-through image cache")
	if err := fs.Parse(args); err != nil {
		return err
	}
	b := cloudeval.New()
	res := evalcluster.Simulate(b.Jobs(), evalcluster.DefaultSimConfig(*workers, *cache))
	fmt.Printf("workers=%d cache=%v\n", res.Workers, res.SharedCache)
	fmt.Printf("evaluation time: %.2f hours\n", res.Total.Hours())
	fmt.Printf("WAN traffic:     %.1f GB\n", res.WANTrafficMB/1024)
	if res.SharedCache {
		fmt.Printf("cache hits/misses: %d/%d\n", res.CacheHits, res.CacheMisses)
	}
	return nil
}

func cmdEval(args []string) error {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	problemID := fs.String("problem", "", "problem ID, e.g. k8s-pod-001")
	file := fs.String("f", "", "path to the candidate YAML answer")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *problemID == "" || *file == "" {
		return fmt.Errorf("eval requires -problem and -f")
	}
	answer, err := os.ReadFile(*file)
	if err != nil {
		return err
	}
	for _, p := range cloudeval.Dataset() {
		if p.ID != *problemID {
			continue
		}
		s := cloudeval.ScoreAnswer(p, string(answer))
		fmt.Printf("problem:      %s (%s/%s)\n", p.ID, p.Category, p.Subcategory)
		fmt.Printf("bleu:         %.3f\n", s.BLEU)
		fmt.Printf("edit_distance:%.3f\n", s.EditDist)
		fmt.Printf("exact_match:  %.0f\n", s.ExactMatch)
		fmt.Printf("kv_exact:     %.0f\n", s.KVExact)
		fmt.Printf("kv_wildcard:  %.3f\n", s.KVWildcard)
		fmt.Printf("unit_test:    %.0f\n", s.UnitTest)
		return nil
	}
	return fmt.Errorf("problem %q not found", *problemID)
}
