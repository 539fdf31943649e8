package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	"cloudeval/client"
	"cloudeval/internal/core"
	"cloudeval/internal/dataset"
	"cloudeval/internal/engine"
	"cloudeval/internal/inference"
	"cloudeval/internal/llm"
	"cloudeval/internal/loadgen"
	"cloudeval/internal/score"
	"cloudeval/internal/server"
	"cloudeval/internal/store"
)

// cmdLoadgen drives the cloudevald service tier under load: it replays
// a recorded JSONL trace (or synthesizes a deterministic request mix
// over the corpus) at a target QPS and concurrency, against either a
// live daemon (-addr) or an in-process server, and writes the
// throughput/latency/error-class report as the JSON artifact
// benchguard's latency gates consume.
func cmdLoadgen(args []string) (retErr error) {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	addr := fs.String("addr", "", "base URL of a live cloudevald (default: an in-process server)")
	n := fs.Int("n", 200, "number of requests to synthesize (ignored with -trace)")
	qps := fs.Float64("qps", 0, "offered load in requests/s (0 = as fast as workers drain)")
	concurrency := fs.Int("concurrency", 8, "in-flight request bound")
	seed := fs.Int64("seed", 1, "synthesis seed (same seed, same trace)")
	tenantsFlag := fs.String("tenants", "", "comma-separated tenant names to spread ops across (default: the default tenant)")
	tracePath := fs.String("trace", "", "replay this JSONL request trace instead of synthesizing")
	recordTrace := fs.String("record-trace", "", "write the synthesized trace here for later replay")
	out := fs.String("out", "", "write the JSON report here (default stdout)")
	warmup := fs.Bool("warm", false, "warm the target (leaderboard + campaign) before measuring")
	storePath := fs.String("store", "", "persistent store for the in-process server (default: none)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var tenants []string
	if *tenantsFlag != "" {
		for _, t := range strings.Split(*tenantsFlag, ",") {
			if t = strings.TrimSpace(t); t != "" {
				tenants = append(tenants, t)
			}
		}
	}

	var ops []loadgen.Op
	var err error
	if *tracePath != "" {
		ops, err = loadgen.LoadTrace(*tracePath)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "loadgen: replaying %d ops from %s\n", len(ops), *tracePath)
	} else {
		models := make([]string, len(llm.Models))
		for i, m := range llm.Models {
			models[i] = m.Name
		}
		ops, err = loadgen.Synthesize(dataset.Generate(), models, tenants, *n, *seed, loadgen.DefaultMix())
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "loadgen: synthesized %d ops (seed %d)\n", len(ops), *seed)
	}
	if *recordTrace != "" {
		f, err := os.Create(*recordTrace)
		if err != nil {
			return err
		}
		if err := loadgen.WriteTrace(f, ops); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "loadgen: recorded trace to %s\n", *recordTrace)
	}

	base := *addr
	if base == "" {
		// In-process mode: a full server (engine + dispatcher + optional
		// store) behind an OS-assigned loopback listener, so the run
		// measures the real HTTP path without needing a daemon.
		var st *store.Store
		eng := engine.New()
		var dopts []inference.DispatchOption
		if *storePath != "" {
			st, err = store.Open(*storePath)
			if err != nil {
				return err
			}
			defer func() {
				if cerr := st.Close(); retErr == nil {
					retErr = cerr
				}
			}()
			eng = engine.New(engine.WithStore(st))
			dopts = append(dopts, inference.WithGenStore(st))
		}
		disp := inference.NewDispatcher(inference.NewSim(llm.Models), dopts...)
		defer disp.Close()
		bench := core.New(score.NewEvaluator(eng, disp), dataset.Generate(), llm.Models)
		dataDir, err := os.MkdirTemp("", "cloudeval-loadgen-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dataDir)
		ts := httptest.NewServer(server.NewWithConfig(bench, dataDir, server.Config{Store: st}).Handler())
		defer ts.Close()
		base = ts.URL
		fmt.Fprintf(os.Stderr, "loadgen: in-process server at %s\n", base)
	}

	if *warmup {
		start := time.Now()
		if err := warmTarget(base); err != nil {
			return fmt.Errorf("warmup: %w", err)
		}
		fmt.Fprintf(os.Stderr, "loadgen: warmed target in %v\n", time.Since(start).Round(time.Millisecond))
	}

	rep, err := loadgen.Run(context.Background(), loadgen.Config{
		BaseURL:     base,
		QPS:         *qps,
		Concurrency: *concurrency,
	}, ops)
	if err != nil {
		return err
	}

	fmt.Fprintf(os.Stderr, "loadgen: %d requests in %.2fs (%.1f req/s), p50 %.2fms p95 %.2fms p99 %.2fms, error rate %.4f\n",
		rep.Requests, rep.DurationSec, rep.ThroughputQPS,
		rep.LatencyMs.P50, rep.LatencyMs.P95, rep.LatencyMs.P99, rep.ErrorRate)
	if *out != "" {
		if err := loadgen.WriteReport(*out, rep); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "loadgen: wrote report to %s\n", *out)
		return nil
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// warmTarget runs the cheap static campaign plus a leaderboard render
// so a cold target's first-touch costs (corpus scoring, engine
// memoization) land before the timed window.
func warmTarget(base string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	c := client.New(base)
	if err := c.Healthz(ctx); err != nil {
		return err
	}
	if _, err := c.Leaderboard(ctx); err != nil {
		return err
	}
	start, err := c.StartCampaign(ctx, []string{"table2"})
	if err != nil {
		return err
	}
	_, err = c.WaitCampaign(ctx, start.ID, 50*time.Millisecond)
	return err
}
