package main

import (
	"context"
	"errors"
	"flag"
	"os"
	"os/signal"
	"syscall"

	"cloudeval/internal/core"
	"cloudeval/internal/dataset"
	"cloudeval/internal/engine"
	"cloudeval/internal/inference"
	"cloudeval/internal/llm"
	"cloudeval/internal/score"
	"cloudeval/internal/store"
)

// wiring is the one place the evaluator chain is built: provider →
// dispatcher → store → engine → score.Evaluator. A subcommand declares
// the flags it takes; the rest keep their defaults (the sim zoo, the
// provider's generation concurrency, no store).
type wiring struct {
	provider, record, replay string
	genConcurrency           int
	store                    string
}

func newWiring() *wiring { return &wiring{provider: "sim", genConcurrency: -1} }

// providerFlags declares -provider, -record, -replay and -gen-concurrency.
func (w *wiring) providerFlags(fs *flag.FlagSet) {
	fs.StringVar(&w.provider, "provider", w.provider, `inference provider: "sim" or "http:<base-url>" (key from $CLOUDEVAL_API_KEY)`)
	fs.StringVar(&w.record, "record", "", "record every live generation to this JSONL trace")
	fs.StringVar(&w.replay, "replay", "", "serve generations from this JSONL trace (overrides -provider)")
	w.genConcurrencyFlag(fs)
}

// genConcurrencyFlag declares -gen-concurrency alone, for node master.
func (w *wiring) genConcurrencyFlag(fs *flag.FlagSet) {
	fs.IntVar(&w.genConcurrency, "gen-concurrency", w.genConcurrency,
		"max generations in flight (0 = unbounded; -1 = provider default: sim/replay unbounded, http 64)")
}

func (w *wiring) storeFlag(fs *flag.FlagSet, usage string) {
	fs.StringVar(&w.store, "store", "", usage)
}

// configured reports whether any non-default provider flag is set.
func (w *wiring) configured() bool {
	return w.provider != "sim" || w.record != "" || w.replay != ""
}

// openProvider builds the provider the flags select: a replay trace
// over -provider, optionally wrapped in a recorder.
func (w *wiring) openProvider() (inference.Provider, error) {
	return inference.OpenSpec(w.provider, w.record, w.replay, os.Getenv("CLOUDEVAL_API_KEY"))
}

// openStore opens the store -store names, or returns nil without one.
func (w *wiring) openStore() (*store.Store, error) {
	if w.store == "" {
		return nil, nil
	}
	return store.Open(w.store)
}

// chain is an opened evaluator chain. Its store, nil without -store,
// caches both the engine's unit-test results and the dispatcher's
// generations.
type chain struct {
	ev    *score.Evaluator
	store *store.Store
}

// open builds the chain; eopts add engine options, such as node
// master's cluster executor.
func (w *wiring) open(eopts ...engine.Option) (*chain, error) {
	prov, err := w.openProvider()
	if err != nil {
		return nil, err
	}
	st, err := w.openStore()
	if err != nil {
		prov.Close()
		return nil, err
	}
	var dopts []inference.DispatchOption
	if w.genConcurrency >= 0 {
		dopts = append(dopts, inference.WithConcurrency(w.genConcurrency))
	}
	if st != nil {
		dopts = append(dopts, inference.WithGenStore(st))
		eopts = append(eopts, engine.WithStore(st))
	}
	ev := score.NewEvaluator(engine.New(eopts...), inference.NewDispatcher(prov, dopts...))
	return &chain{ev: ev, store: st}, nil
}

// benchmark is the paper's benchmark, the full corpus and zoo, on the
// chain's evaluator.
func (c *chain) benchmark() *core.Benchmark {
	return core.New(c.ev, dataset.Generate(), llm.Models)
}

// close flushes the dispatcher (the trace recorder's latched write
// error surfaces here), closes the engine's executor and the store,
// and returns their errors with the dispatcher's first generation
// failure. It runs after the last evaluation.
func (c *chain) close() error {
	disp := c.ev.Dispatcher()
	errs := []error{disp.Close(), c.ev.Engine().Close()}
	if c.store != nil {
		errs = append(errs, c.store.Close())
	}
	return errors.Join(append(errs, disp.Err())...)
}

// closeOnReturn is deferred by each subcommand that opens a chain, so
// a run that fails midway still flushes the trace and closes the
// store. The subcommand's own error comes first.
func (c *chain) closeOnReturn(err *error) {
	if cerr := c.close(); *err == nil {
		*err = cerr
	}
}

// interrupted returns a context the first SIGINT or SIGTERM cancels:
// docker and systemd stop with SIGTERM, and the closes after it must
// run. After it, signals take their default action again, so a second
// Ctrl-C kills. Only the subcommands that wait for a signal (serve and
// node redis) call it; the others still die on the first Ctrl-C.
func interrupted() context.Context {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop)
	return ctx
}
