// Command cloudeval is the benchmark's one binary: it prints and
// writes the dataset, runs the model zoo, regenerates every table and
// figure of the paper, serves the benchmark over HTTP, and runs the
// nodes of the distributed evaluation cluster.
//
// Usage:
//
//	cloudeval dataset            # Tables 1 and 2
//	cloudeval dataset -out dataset -augmented -digest ci/dataset-digest.txt   # write the corpus tree and its digest manifest
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
//	cloudeval serve -addr :8080 -data cloudevald-data           # the HTTP daemon (API.md)
//	cloudeval node redis  -addr 127.0.0.1:6399                  # the cluster's coordination store
//	cloudeval node worker -addr 127.0.0.1:6399 -name worker-1   # a worker executing unit tests
//	cloudeval node master -addr 127.0.0.1:6399 -model gpt-4 -limit 50
//
// wiring.go builds the evaluator chain every subcommand runs on.
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"cloudeval"
	"cloudeval/internal/augment"
	"cloudeval/internal/core"
	"cloudeval/internal/cost"
	"cloudeval/internal/dataset"
	"cloudeval/internal/evalcluster"
	"cloudeval/internal/inference"
	"cloudeval/internal/llm"
)

// commands maps each subcommand to the function that declares its
// flags on fs and returns what runs it once they are parsed. The
// cluster's roles are "node redis", "node worker" and "node master".
var commands = map[string]func(fs *flag.FlagSet) func() error{
	"dataset":     cmdDataset,
	"bench":       cmdBench,
	"figures":     cmdFigures,
	"campaign":    cmdCampaign,
	"models":      cmdModels,
	"cost":        cmdCost,
	"cluster":     cmdCluster,
	"eval":        cmdEval,
	"loadgen":     cmdLoadgen,
	"serve":       cmdServe,
	"node redis":  cmdRedis,
	"node worker": cmdWorker,
	"node master": cmdMaster,
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	name, args := os.Args[1], os.Args[2:]
	if name == "node" && len(args) > 0 {
		name, args = name+" "+args[0], args[1:]
	}
	if name == "help" || name == "-h" || name == "--help" {
		usage()
		return
	}
	cmd, ok := commands[name]
	if !ok {
		fmt.Fprintf(os.Stderr, "cloudeval: unknown command %q\n", name)
		usage()
		os.Exit(2)
	}
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	run := cmd(fs)
	fs.Parse(args) // ExitOnError: a bad flag exits here
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cloudeval:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `cloudeval - the CloudEval-YAML benchmark

Commands:
  dataset             print augmentation stats (Table 1) and dataset statistics (Table 2)
  dataset [-out D] [-augmented] [-digest F]
                      write the corpus to D, one directory per problem, and
                      its per-problem digest manifest to F (-augmented adds
                      the simplified and translated variants)
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
                      drive a live (-addr) or in-process daemon under a
                      synthesized or replayed request mix; the JSON report
                      (throughput, p50/p95/p99, error classes) feeds
                      benchguard's latency gates
  serve [-addr A] [-data D] [-store F] [-warm] [-pprof] [-tenant-rate R]
        [-tenant-burst B] [-campaign-queue N] [-campaign-workers N]
                      serve the benchmark over HTTP (API.md) until SIGINT
                      or SIGTERM; the store defaults to D/eval.store
  node redis  [-addr A]           the cluster's coordination store, until SIGINT or SIGTERM
  node worker [-addr A] [-name N] [-idle T] [-store F]
                      execute the unit tests the master queues
  node master [-addr A] [-model M] [-limit N] [-inflight N] [-timeout T]
              [-gen-concurrency N]
                      evaluate one model on the first N problems through
                      the cluster's workers

-store attaches the persistent evaluation store at F: unit-test
results and generations persist across invocations, so a warm re-run
neither executes nor generates anything. Payloads live on disk behind
an offset index, so resident memory is the index's regardless of
store size.

bench, figures, campaign, models and serve take inference provider flags:
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
                             node master takes this one alone.
`)
}

// cmdDataset prints Tables 1 and 2, or, with -out or -digest, writes
// the corpus in the layout of the paper's released dataset:
//
//	<out>/<problem-id>/
//	    prompt.txt        the natural-language question (plus context)
//	    context.yaml      the optional YAML context
//	    labeled_code.yaml the labeled reference answer
//	    unit_test.sh      the bash unit test
//
// The digest manifest has one "id sha256" line per problem plus a
// total line. CI regenerates it and fails on a dirty diff, so a corpus
// change lands with its regenerated ci/dataset-digest.txt.
func cmdDataset(fs *flag.FlagSet) func() error {
	out := fs.String("out", "", "write the corpus tree here (empty: no tree)")
	augmented := fs.Bool("augmented", false, "include simplified and translated variants (triples the corpus)")
	digest := fs.String("digest", "", "also write a per-problem content digest manifest here")
	return func() error {
		if *out == "" && *digest == "" {
			b := cloudeval.New()
			fmt.Println("== Table 1: practical data augmentation ==")
			fmt.Println(b.Table1())
			fmt.Println("== Table 2: dataset statistics ==")
			fmt.Println(b.Table2())
			return nil
		}
		problems := dataset.Generate()
		if *augmented {
			problems = augment.ExpandCorpus(problems)
		}
		if *out != "" {
			for _, p := range problems {
				dir := filepath.Join(*out, p.ID)
				if err := os.MkdirAll(dir, 0o755); err != nil {
					return err
				}
				files := map[string]string{"prompt.txt": p.Question, "labeled_code.yaml": p.ReferenceYAML, "unit_test.sh": p.UnitTest}
				if p.ContextYAML != "" {
					files["context.yaml"] = p.ContextYAML
				}
				for name, content := range files {
					if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
						return err
					}
				}
			}
			fmt.Printf("wrote %d problems to %s\n", len(problems), *out)
		}
		if *digest != "" {
			if err := os.WriteFile(*digest, []byte(manifest(problems)), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote digest manifest for %d problems to %s\n", len(problems), *digest)
		}
		return nil
	}
}

// manifest hashes everything cmdDataset writes for each problem.
// Generation is deterministic, so the manifest is too.
func manifest(problems []dataset.Problem) string {
	var b strings.Builder
	for _, p := range problems {
		h := sha256.New()
		fmt.Fprintf(h, "%s\x00%s\x00%s\x00%s\x00%s\x00%s\x00%s",
			p.ID, p.Category, p.Subcategory, p.Question, p.ContextYAML, p.ReferenceYAML, p.UnitTest)
		fmt.Fprintf(&b, "%s %x\n", p.ID, h.Sum(nil))
	}
	fmt.Fprintf(&b, "total %d\n", len(problems))
	return b.String()
}

// report prints, after a bench or campaign run, the counters that
// show contention and eviction regressions in a plain run: with a
// store, its shard layout and batching ratio and the two in-memory
// caches above it (the counters GET /v1/stats serves), and, with a
// store or a non-default provider, the dispatcher counters and the
// metered inference cost.
func (c *chain) report(w *wiring) {
	ev := c.ev
	if st := c.store; st != nil {
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
		es, gs := ev.Engine().Stats(), ev.Dispatcher().Stats()
		fmt.Fprintf(os.Stderr, "caches: engine %d entries, %.1f MiB, %d evictions; inference %d entries, %.1f MiB, %d evictions\n",
			es.CacheEntries, float64(es.CacheBytes)/(1<<20), es.CacheEvictions,
			gs.CacheEntries, float64(gs.CacheBytes)/(1<<20), gs.CacheEvictions)
	}
	if c.store == nil && !w.configured() {
		return
	}
	disp := ev.Dispatcher()
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

func cmdBench(fs *flag.FlagSet) func() error {
	w := newWiring()
	w.storeFlag(fs, "persistent evaluation store path")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the campaign here")
	memProfile := fs.String("memprofile", "", "write an allocation profile here after the campaign")
	mutexProfile := fs.String("mutexprofile", "", "write a mutex-contention profile here after the campaign")
	blockProfile := fs.String("blockprofile", "", "write a blocking profile here after the campaign")
	w.providerFlags(fs)
	return func() (retErr error) {
		stopProfiles, err := startProfiles(*cpuProfile, *memProfile, *mutexProfile, *blockProfile)
		if err != nil {
			return err
		}
		defer stopProfiles()
		c, err := w.open()
		if err != nil {
			return err
		}
		defer c.closeOnReturn(&retErr)
		fmt.Println(c.benchmark().Table4())
		if c.store != nil {
			es := c.ev.Engine().Stats()
			fmt.Printf("engine: %d executed, %d memory hits, %d store hits\n", es.Executed, es.CacheHits, es.StoreHits)
		}
		c.report(w)
		return nil
	}
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

func cmdFigures(fs *flag.FlagSet) func() error {
	id := fs.String("id", "", "experiment id (table1..table9, figure5..figure9)")
	all := fs.Bool("all", false, "run every experiment")
	w := newWiring()
	w.storeFlag(fs, "persistent evaluation store path")
	w.providerFlags(fs)
	return func() (retErr error) {
		c, err := w.open()
		if err != nil {
			return err
		}
		defer c.closeOnReturn(&retErr)
		b := c.benchmark()
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
}

func cmdCampaign(fs *flag.FlagSet) func() error {
	dir := fs.String("dir", "", "campaign directory (checkpoints + outputs)")
	idsFlag := fs.String("ids", "", "comma-separated experiment ids (default: all)")
	w := newWiring()
	w.storeFlag(fs, "persistent evaluation store path")
	w.providerFlags(fs)
	return func() (retErr error) {
		if *dir == "" {
			return fmt.Errorf("campaign requires -dir")
		}
		var ids []string
		if *idsFlag != "" {
			for _, id := range strings.Split(*idsFlag, ",") {
				ids = append(ids, strings.ToLower(strings.TrimSpace(id)))
			}
		}
		c, err := w.open()
		if err != nil {
			return err
		}
		defer c.closeOnReturn(&retErr)
		b := c.benchmark()
		report, err := b.RunCampaign(*dir, ids, os.Stdout, nil, nil)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "campaign: %d ran, %d resumed from checkpoint\n",
			len(report.Ran), len(report.Skipped))
		c.report(w)
		return nil
	}
}

// cmdModels lists the model zoo in ranking order and describes the
// provider the flags configure.
func cmdModels(fs *flag.FlagSet) func() error {
	w := newWiring()
	w.providerFlags(fs)
	return func() error {
		// models never generates, so -record must not truncate an
		// existing trace just to print the listing.
		w.record = ""
		prov, err := w.openProvider()
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
			fmt.Printf(" (%d recorded generations from %s)", p.Len(), w.replay)
		}
		fmt.Println()
		return nil
	}
}

func cmdCost(*flag.FlagSet) func() error {
	return func() error {
		fmt.Println(cloudeval.New().Table3())
		return nil
	}
}

func cmdCluster(fs *flag.FlagSet) func() error {
	workers := fs.Int("workers", 64, "worker count")
	cache := fs.Bool("cache", false, "enable the shared pull-through image cache")
	return func() error {
		res := evalcluster.Simulate(cloudeval.New().Jobs(), evalcluster.DefaultSimConfig(*workers, *cache))
		fmt.Printf("workers=%d cache=%v\n", res.Workers, res.SharedCache)
		fmt.Printf("evaluation time: %.2f hours\n", res.Total.Hours())
		fmt.Printf("WAN traffic:     %.1f GB\n", res.WANTrafficMB/1024)
		if res.SharedCache {
			fmt.Printf("cache hits/misses: %d/%d\n", res.CacheHits, res.CacheMisses)
		}
		return nil
	}
}

func cmdEval(fs *flag.FlagSet) func() error {
	problemID := fs.String("problem", "", "problem ID, e.g. k8s-pod-001")
	file := fs.String("f", "", "path to the candidate YAML answer")
	return func() error {
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
}
