// Command cloudevald serves the CloudEval-YAML benchmark as a
// long-lived HTTP daemon: a shared evaluation engine with a persistent
// content-addressed store underneath, so repeated evaluations —
// across requests, campaigns, and daemon restarts — hit disk instead
// of the simulated cluster.
//
//	cloudevald -addr :8080 -data cloudevald-data
//
// Endpoints:
//
//	POST /v1/eval            {"problem": "...", "answer": "..."} or {"problem": "...", "model": "..."}
//	POST /v1/campaign        {"experiments": ["table4", ...]} (empty = all); async
//	GET  /v1/campaign/{id}   campaign status + outputs
//	GET  /v1/leaderboard     the zero-shot Table 4 (paper families, byte-pinned)
//	GET  /v1/leaderboard/families  per-workload-family rows incl. compose and helm
//	GET  /v1/stats           engine counters
//	GET  /healthz            liveness
//
// Every /v1 route is tenant-scoped: the X-Tenant header (or ?tenant=)
// names a namespace for campaign IDs, checkpoints and leaderboard
// caches; absent, requests land on the wire-compatible default tenant.
// -tenant-rate/-tenant-burst put a per-tenant token bucket in front of
// POST /v1/eval and /v1/campaign, and -campaign-queue bounds admitted
// campaigns — overload answers 429 with Retry-After and the JSON error
// envelope. See API.md for the full contract.
//
// The store lives at <data>/eval.store and campaign checkpoints under
// <data>/campaigns/; point -data at a CI cache or shared volume to
// carry warm state across runs. The store caches generations alongside
// unit-test results, so a warm daemon neither generates nor executes.
//
// The inference provider is fixed at construction: -provider sim (the
// default zoo), -provider http:<base-url> (an OpenAI-compatible
// endpoint, key from $CLOUDEVAL_API_KEY), -replay trace.jsonl (serve a
// recorded transcript with zero live calls), optionally -record
// trace.jsonl to capture one.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"cloudeval/internal/core"
	"cloudeval/internal/engine"
	"cloudeval/internal/inference"
	"cloudeval/internal/server"
	"cloudeval/internal/store"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cloudevald:", err)
		os.Exit(1)
	}
}

// withPprof routes /debug/pprof/* to the net/http/pprof handlers and
// everything else to the API handler. The pprof import is wired
// explicitly rather than via the DefaultServeMux side effect so the
// endpoints exist only when -pprof is set.
func withPprof(api http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", func(w http.ResponseWriter, r *http.Request) {
		switch name := strings.TrimPrefix(r.URL.Path, "/debug/pprof/"); name {
		case "", "index":
			pprof.Index(w, r)
		case "cmdline":
			pprof.Cmdline(w, r)
		case "profile":
			pprof.Profile(w, r)
		case "symbol":
			pprof.Symbol(w, r)
		case "trace":
			pprof.Trace(w, r)
		default:
			pprof.Handler(name).ServeHTTP(w, r)
		}
	})
	mux.Handle("/", api)
	return mux
}

func run() error {
	addr := flag.String("addr", ":8080", "listen address")
	data := flag.String("data", "cloudevald-data", "data directory (store + campaign checkpoints)")
	storePath := flag.String("store", "", "evaluation store path (default <data>/eval.store)")
	storeCacheMB := flag.Int("store-cache-mb", 256, "store hot-cache byte budget in MiB (0 disables caching)")
	provider := flag.String("provider", "sim", `inference provider: "sim" or "http:<base-url>" (key from $CLOUDEVAL_API_KEY)`)
	record := flag.String("record", "", "record every live generation to this JSONL trace")
	replay := flag.String("replay", "", "serve generations from this JSONL trace (overrides -provider)")
	genConcurrency := flag.Int("gen-concurrency", -1, "max generations in flight (0 = unbounded; -1 = provider default: sim/replay unbounded, http 64)")
	warm := flag.Bool("warm", false, "run the Table 4 campaign at startup so the first request is cheap")
	pprofOn := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ (off by default)")
	tenantRate := flag.Float64("tenant-rate", 0, "per-tenant admission rate in requests/s for POST /v1/eval and /v1/campaign (0 = unlimited)")
	tenantBurst := flag.Int("tenant-burst", 0, "per-tenant admission burst (only with -tenant-rate)")
	campaignQueue := flag.Int("campaign-queue", 0, "max campaigns admitted but not finished before POST /v1/campaign 429s (0 = unbounded)")
	campaignWorkers := flag.Int("campaign-workers", 0, "max campaigns running concurrently; admitted extras queue (0 = unbounded)")
	flag.Parse()

	if err := os.MkdirAll(*data, 0o755); err != nil {
		return err
	}
	path := *storePath
	if path == "" {
		path = filepath.Join(*data, "eval.store")
	}
	st, err := store.Open(path, store.WithHotCacheBytes(int64(*storeCacheMB)<<20))
	if err != nil {
		return err
	}
	defer st.Close()

	// The inference provider is fixed at construction: every generation
	// the daemon performs — warmups, campaigns, /v1/eval model requests
	// — routes through one dispatcher whose generation cache is backed
	// by the same store as the unit-test results.
	prov, err := inference.OpenSpec(*provider, *record, *replay, os.Getenv("CLOUDEVAL_API_KEY"))
	if err != nil {
		return err
	}
	dopts := []inference.DispatchOption{inference.WithGenStore(st)}
	if *genConcurrency >= 0 {
		dopts = append(dopts, inference.WithConcurrency(*genConcurrency))
	}
	disp := inference.NewDispatcher(prov, dopts...)
	defer disp.Close()

	eng := engine.New(engine.WithStore(st))
	bench := core.NewVia(eng, disp)
	srv := server.NewWithConfig(bench, *data, server.Config{
		TenantRate:      *tenantRate,
		TenantBurst:     *tenantBurst,
		CampaignQueue:   *campaignQueue,
		CampaignWorkers: *campaignWorkers,
		Store:           st,
	})

	fmt.Printf("cloudevald: store %s (%d shards, %d results, %d generations), provider %s, %d problems, %d models\n",
		path, st.Shards(), st.Len(), st.GenLen(), prov.Name(), len(bench.Problems), len(bench.Models))
	op := st.LastOpen()
	fmt.Printf("cloudevald: store open %.1fms — %d frames from %d snapshot sidecars, %d scanned (%d legacy JSON); hot cache %d MiB\n",
		float64(op.Duration.Microseconds())/1e3, op.SnapshotFrames, op.SnapshotShards, op.ScannedFrames, op.LegacyFrames, *storeCacheMB)
	if *warm {
		start := time.Now()
		bench.ZeroShot()
		if err := disp.Err(); err != nil {
			// A daemon warmed on an incomplete trace or a failing
			// endpoint would serve zero-scored tables; refuse to start.
			return fmt.Errorf("warmup generation failed: %w", err)
		}
		stats := eng.Stats()
		gst := disp.Stats()
		fmt.Printf("cloudevald: warmed Table 4 in %v (%d executed, %d memory hits, %d store hits; %d generated, %d gen store hits)\n",
			time.Since(start).Round(time.Millisecond), stats.Executed, stats.CacheHits, stats.StoreHits,
			gst.Generated, gst.StoreHits)
	}

	handler := srv.Handler()
	if *pprofOn {
		// Opt-in profiling endpoints, so a long first-run campaign or a
		// slow eval can be profiled in place instead of reproduced in a
		// bench harness. Off by default: the daemon may face networks
		// where exposing goroutine dumps and heap contents is unwanted.
		// Sampling for /debug/pprof/mutex and /debug/pprof/block is
		// enabled alongside the endpoints — those profiles are empty
		// without it, and the per-contention overhead only matters when
		// someone has already opted into profiling.
		runtime.SetMutexProfileFraction(1)
		runtime.SetBlockProfileRate(1)
		handler = withPprof(handler)
		fmt.Println("cloudevald: pprof enabled at /debug/pprof/ (mutex and block sampling on)")
	}
	// ReadHeaderTimeout: a client that opens a connection and never
	// finishes its headers must not hold it, and its goroutine, forever.
	httpSrv := &http.Server{Addr: *addr, Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Printf("cloudevald: listening on %s\n", *addr)

	sig := make(chan os.Signal, 1)
	// SIGTERM too: docker/systemd stop with it, and the deferred
	// closes (store sync, trace recorder flush) must run.
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case <-sig:
	}
	fmt.Println("cloudevald: shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		return err
	}
	return st.Sync()
}
