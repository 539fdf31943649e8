package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"cloudeval/internal/server"
)

// cmdServe serves the benchmark as a long-lived HTTP daemon (API.md
// has the endpoints): one evaluator over a persistent
// content-addressed store, so repeated evaluations, across requests,
// campaigns and restarts, hit disk instead of the simulated cluster.
// The store caches generations alongside unit-test results, so a warm
// daemon neither generates nor executes. It lives at <data>/eval.store
// unless -store names another, and campaign checkpoints live under
// <data>/campaigns/; point -data at a CI cache or shared volume to
// carry warm state across runs.
//
// Every /v1 route is tenant-scoped by the X-Tenant header (or
// ?tenant=). -tenant-rate/-tenant-burst put a per-tenant token bucket
// in front of POST /v1/eval and /v1/campaign, and -campaign-queue
// bounds admitted campaigns; overload answers 429 with Retry-After.
func cmdServe(fs *flag.FlagSet) func() error {
	addr := fs.String("addr", ":8080", "listen address")
	data := fs.String("data", "cloudevald-data", "data directory (store + campaign checkpoints)")
	w := newWiring()
	w.storeFlag(fs, "evaluation store path (default <data>/eval.store)")
	w.providerFlags(fs)
	warm := fs.Bool("warm", false, "run the Table 4 campaign at startup so the first request is cheap")
	pprofOn := fs.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ (off by default)")
	tenantRate := fs.Float64("tenant-rate", 0, "per-tenant admission rate in requests/s for POST /v1/eval and /v1/campaign (0 = unlimited)")
	tenantBurst := fs.Int("tenant-burst", 0, "per-tenant admission burst (only with -tenant-rate)")
	campaignQueue := fs.Int("campaign-queue", 0, "max campaigns admitted but not finished before POST /v1/campaign 429s (0 = unbounded)")
	campaignWorkers := fs.Int("campaign-workers", 0, "max campaigns running concurrently; admitted extras queue (0 = unbounded)")
	return func() (retErr error) {
		if err := os.MkdirAll(*data, 0o755); err != nil {
			return err
		}
		if w.store == "" {
			w.store = filepath.Join(*data, "eval.store")
		}
		c, err := w.open()
		if err != nil {
			return err
		}
		defer c.closeOnReturn(&retErr)
		st, eng, disp := c.store, c.ev.Engine(), c.ev.Dispatcher()
		bench := c.benchmark()
		srv := server.NewWithConfig(bench, *data, server.Config{
			TenantRate:      *tenantRate,
			TenantBurst:     *tenantBurst,
			CampaignQueue:   *campaignQueue,
			CampaignWorkers: *campaignWorkers,
			Store:           st,
		})

		ss := server.StoreStats(st)
		fmt.Printf("serve: store %s (%d shards, %d results, %d generations), provider %s, %d problems, %d models\n",
			w.store, ss.Shards, ss.Records, ss.Generations, disp.Provider().Name(), len(bench.Problems), len(bench.Models))
		fmt.Printf("serve: store open %.1fms — %d frames scanned\n",
			ss.LastOpen.DurationMs, ss.LastOpen.ScannedFrames)
		if *warm {
			start := time.Now()
			bench.ZeroShot()
			if err := disp.Err(); err != nil {
				// A daemon warmed on an incomplete trace or a failing
				// endpoint would serve zero-scored tables; refuse to start.
				return fmt.Errorf("warmup generation failed: %w", err)
			}
			stats, gst := eng.Stats(), disp.Stats()
			fmt.Printf("serve: warmed Table 4 in %v (%d executed, %d memory hits, %d store hits; %d generated, %d gen store hits)\n",
				time.Since(start).Round(time.Millisecond), stats.Executed, stats.CacheHits, stats.StoreHits,
				gst.Generated, gst.StoreHits)
		}

		handler := srv.Handler()
		if *pprofOn {
			// Opt-in, so a slow campaign or eval can be profiled in
			// place; the daemon may face networks where goroutine dumps
			// and heap contents must not be exposed. /debug/pprof/mutex
			// and /block are empty without sampling, so it comes on
			// with them.
			runtime.SetMutexProfileFraction(1)
			runtime.SetBlockProfileRate(1)
			handler = withPprof(handler)
			fmt.Println("serve: pprof enabled at /debug/pprof/ (mutex and block sampling on)")
		}
		ctx := interrupted()
		// ReadHeaderTimeout: a client that opens a connection and never
		// finishes its headers must not hold it, and its goroutine, forever.
		httpSrv := &http.Server{Addr: *addr, Handler: handler, ReadHeaderTimeout: 10 * time.Second}
		errc := make(chan error, 1)
		go func() { errc <- httpSrv.ListenAndServe() }()
		fmt.Printf("serve: listening on %s\n", *addr)
		select {
		case err := <-errc:
			return err
		case <-ctx.Done():
		}
		fmt.Println("serve: shutting down")
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return httpSrv.Shutdown(sctx)
	}
}

// withPprof routes /debug/pprof/* to the net/http/pprof handlers and
// everything else to the API handler. The handlers are wired here
// rather than through DefaultServeMux's side effect, so they exist only
// with -pprof.
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
