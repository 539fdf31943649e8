// Example persistent-eval demonstrates the persistent evaluation store
// and resumable campaigns: the first campaign executes unit tests and
// fills the store; a second benchmark in the same binary — built like
// a fresh process, with a new engine and a reopened store — replays
// the identical campaign without executing a single unit test, and a
// checkpointed campaign run resumes instead of recomputing.
//
//	go run ./examples/persistent-eval
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	"cloudeval/internal/core"
	"cloudeval/internal/dataset"
	"cloudeval/internal/engine"
	"cloudeval/internal/inference"
	"cloudeval/internal/llm"
	"cloudeval/internal/store"
)

func main() {
	workDir, err := os.MkdirTemp("", "persistent-eval-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(workDir)
	storePath := filepath.Join(workDir, "eval.store")
	campaignDir := filepath.Join(workDir, "campaign")

	// A small corpus keeps the walkthrough quick; the mechanics are
	// identical at full scale.
	originals := dataset.Generate()[:40]
	models := llm.Models[:4]

	// --- Run 1: cold store. Every distinct evaluation executes. ---
	st, err := store.Open(storePath)
	if err != nil {
		log.Fatal(err)
	}
	// The dispatcher serves exactly the models the benchmark evaluates.
	bench := core.NewCustomVia(engine.New(engine.WithStore(st)),
		inference.NewDispatcher(inference.NewSim(models)), originals, models)
	fmt.Println("== cold run: Table 4 ==")
	fmt.Println(bench.Table4())
	stats := bench.Engine().Stats()
	fmt.Printf("cold:  %d unit tests executed, %d memory hits, %d store hits\n",
		stats.Executed, stats.CacheHits, stats.StoreHits)

	// Checkpoint a campaign too, then "crash" before table4 finishes by
	// only running part of it.
	if _, err := bench.RunCampaign(campaignDir, []string{"table2"}, io.Discard); err != nil {
		log.Fatal(err)
	}
	if err := st.Close(); err != nil {
		log.Fatal(err)
	}

	// --- Run 2: a fresh process. New engine, reopened store. ---
	st2, err := store.Open(storePath)
	if err != nil {
		log.Fatal(err)
	}
	defer st2.Close()
	fmt.Printf("\nreopened store holds %d records\n", st2.Len())
	bench2 := core.NewCustomVia(engine.New(engine.WithStore(st2)),
		inference.NewDispatcher(inference.NewSim(models)), originals, models)
	fmt.Println("== warm run: identical Table 4, zero executions ==")
	fmt.Println(bench2.Table4())
	stats = bench2.Engine().Stats()
	fmt.Printf("warm:  %d unit tests executed, %d store hits\n", stats.Executed, stats.StoreHits)

	// The campaign resumes from its manifest: table2 replays from its
	// checkpoint file, only table4 is new — and its unit tests all come
	// from the store.
	report, err := bench2.RunCampaign(campaignDir, []string{"table2", "table4"}, io.Discard)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("campaign resume: ran %v, resumed %v from checkpoints\n", report.Ran, report.Skipped)
}
