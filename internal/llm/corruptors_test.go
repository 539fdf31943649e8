package llm

import (
	"runtime"
	"sync"
	"testing"

	"cloudeval/internal/augment"
	"cloudeval/internal/dataset"
	"cloudeval/internal/raceflag"
	"cloudeval/internal/scenario"
	"cloudeval/internal/yamlx"
)

// rendered runs a corruptor on an arena of its own and returns what it
// wrote.
func rendered(write func(a *arena)) string {
	a := arenas.Get().(*arena)
	defer a.release()
	write(a)
	return string(a.out)
}

// table4Pair reports whether Table 4 has a cell for the pair.
func table4Pair(m Model, p dataset.Problem) bool {
	return !(m.EnglishOnly && p.Variant == dataset.Translated)
}

// TestCorruptorsMatchCloneOracle holds the three copy-on-write
// corruptors to the clone-and-marshal ones in oracle_test.go: the same
// answer, and both random streams left where the oracle leaves them,
// for every model and problem at the default options and over the whole
// pinSweep on every tenth problem. It also pins how Table 4's 13,195
// generations divide among the corruptors, which DESIGN.md §2.2 quotes.
func TestCorruptorsMatchCloneOracle(t *testing.T) {
	problems := augment.ExpandCorpus(dataset.Generate())
	const (
		viaCorruptYAML = iota
		viaWrongKind
		viaHarmlessNoise
		viaNone
	)
	check := func(m Model, p dataset.Problem, opts GenOptions) int {
		rng, latent := m.rng(p, opts, true), m.rng(p, opts, false)
		oRng, oLatent := m.rng(p, opts, true), m.rng(p, opts, false)
		defer func() { rngPool.Put(rng); rngPool.Put(latent); rngPool.Put(oRng); rngPool.Put(oLatent) }()
		cat := m.drawCategory(p, opts, rng, latent)
		m.drawCategory(p, opts, oRng, oLatent)
		c := contextFor(p)
		var got, want string
		via := viaNone
		switch { // as Model.emit dispatches
		case cat == 5 || cat == 4 && !scenario.For(p.Category).HasKind:
			via, got, want = viaCorruptYAML, rendered(func(a *arena) { corruptYAML(a, c, latent) }), oracleCorruptYAML(c, oLatent)
		case cat == 4:
			via, got, want = viaWrongKind, rendered(func(a *arena) { wrongKind(a, c, latent) }), oracleWrongKind(c, oLatent)
		case cat == 6 && rng.Float64() < m.Profile.NoiseWhenCorrect:
			oRng.Float64()
			via, got, want = viaHarmlessNoise, rendered(func(a *arena) { harmlessNoise(a, c, rng) }), oracleHarmlessNoise(c, oRng)
		}
		if got != want {
			t.Errorf("%s on %s %+v (category %d): copy-on-write answer\n%s\nclone-and-marshal answer\n%s", m.Name, p.ID, opts, cat, got, want)
		}
		if via != viaNone && (rng.Int63() != oRng.Int63() || latent.Int63() != oLatent.Int63()) {
			t.Errorf("%s on %s %+v (category %d): the corruptor drew differently from the oracle", m.Name, p.ID, opts, cat)
		}
		return via
	}
	var calls [viaNone + 1]int
	for _, m := range Models {
		for i, p := range problems {
			via := check(m, p, GenOptions{})
			if table4Pair(m, p) {
				calls[via]++
			}
			if i%10 == 0 {
				pinSweep(func(opts GenOptions) { check(m, p, opts) })
			}
		}
	}
	if want := [...]int{5602, 1310, 1217, 13195 - 5602 - 1310 - 1217}; calls != want {
		t.Errorf("Table 4 generations through corruptYAML, wrongKind, harmlessNoise, none = %v, want %v", calls, want)
	}
}

// distinctContexts returns one problem for each compiled context the
// corpus has.
func distinctContexts() []dataset.Problem {
	type key struct{ reference, unitTest string }
	seen := map[key]bool{}
	var out []dataset.Problem
	for _, p := range augment.ExpandCorpus(dataset.Generate()) {
		if k := (key{p.ReferenceYAML, p.UnitTest}); !seen[k] {
			seen[k] = true
			out = append(out, p)
		}
	}
	return out
}

// parseAfresh parses past the document cache, so a context compiled
// with it owns its documents.
func parseAfresh(src string) ([]*yamlx.Node, error) { return yamlx.ParseAll([]byte(src)) }

// TestCompiledTreesNeverWritten: sixteen goroutines generate over the
// whole corpus at once, each with its own model and options, all
// through the same compiled contexts. Afterwards every context's trees
// equal, and marshal like, those of a context compiled from a fresh
// parse; under -race a corruptor that wrote through a shared node
// rather than its arena copy is reported as well.
func TestCompiledTreesNeverWritten(t *testing.T) {
	problems := augment.ExpandCorpus(dataset.Generate())
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			m := Models[g%len(Models)]
			opts := GenOptions{Sample: g, Shots: g % 4}
			if g >= len(Models) {
				opts.Temperature = 0.8
			}
			for _, p := range problems {
				m.Generate(p, opts)
			}
		}(g)
	}
	wg.Wait()
	for _, p := range distinctContexts() {
		c, fresh := contextFor(p), compileContext(p, parseAfresh)
		for _, trees := range []struct {
			name      string
			got, want []*yamlx.Node
		}{{"docs", c.docs, fresh.docs}, {"labeled", c.labeled, fresh.labeled}, {"noiseBase", c.noiseBase, fresh.noiseBase}} {
			if len(trees.got) != len(trees.want) {
				t.Errorf("%s: %s has %d documents, a fresh compile %d", p.ID, trees.name, len(trees.got), len(trees.want))
				continue
			}
			for i := range trees.got {
				if trees.got[i] == trees.want[i] && trees.got[i] != nil {
					t.Fatalf("%s: the fresh compile shares %s with the cached context", p.ID, trees.name)
				}
				if !yamlx.Equal(trees.got[i], trees.want[i]) {
					t.Errorf("%s: %s[%d] is no longer what the reference parses to", p.ID, trees.name, i)
				}
			}
			if got, want := string(yamlx.MarshalAll(trees.got)), string(yamlx.MarshalAll(trees.want)); got != want {
				t.Errorf("%s: %s marshals as\n%s\nfreshly parsed as\n%s", p.ID, trees.name, got, want)
			}
		}
	}
}

// TestContextsRetain bounds the heap the corpus's compiled contexts
// hold — parsed trees, both templates and the noise base — counting the
// documents too (parsed afresh, so each context owns its own). A
// campaign keeps all of them for as long as it runs, and so does every
// set-up of the benchmark.
func TestContextsRetain(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("heap accounting differs under the race detector")
	}
	problems := distinctContexts()
	if len(problems) != 312 {
		t.Errorf("%d distinct contexts, want 312", len(problems))
	}
	contexts := make([]*genContext, len(problems))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i, p := range problems {
		contexts[i] = compileContext(p, parseAfresh)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	t.Logf("%d contexts retain %.2f MB", len(contexts), retained/1e6)
	if retained > 4.0e6 {
		t.Errorf("%d contexts retain %.2f MB of heap, want at most 4.0 MB", len(contexts), retained/1e6)
	}
	runtime.KeepAlive(contexts)
}
