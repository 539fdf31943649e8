package llm

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"testing"

	"cloudeval/internal/augment"
	"cloudeval/internal/dataset"
	"cloudeval/internal/raceflag"
)

// pinSweep calls fn for every generation setting the pins cover:
// shots 0–3 × samples 0–4 at temperature 0 and 0.8.
func pinSweep(fn func(GenOptions)) {
	for shots := 0; shots <= 3; shots++ {
		for sample := 0; sample <= 4; sample++ {
			for _, temp := range []float64{0, 0.8} {
				fn(GenOptions{Sample: sample, Temperature: temp, Shots: shots})
			}
		}
	}
}

// generateDigest is the SHA-256 TestGenerateDigestPinned compares
// against, recorded from commit 5d52624 — the last one whose sim drew
// from math/rand's own source and re-derived the reference text, its
// documents and the tested leaves on every generation.
const generateDigest = "7cb95d6abe179492c2182e049277b67fba136390f52d4fc90d94187eb4de20fa"

// TestGenerateDigestPinned hashes every response of the zoo over the
// full corpus and the whole pinSweep: 542,880 generations, where the
// Table 4 goldens see only shots 0, sample 0. Any change to the random
// stream, the seed derivation or the compiled generation context that
// alters one byte of one response changes the digest.
func TestGenerateDigestPinned(t *testing.T) {
	if testing.Short() || raceflag.Enabled {
		t.Skip("half a million generations; runs in the plain full suite")
	}
	problems := augment.ExpandCorpus(dataset.Generate())
	sums := make([][sha256.Size]byte, len(Models))
	var wg sync.WaitGroup
	for i, m := range Models {
		wg.Add(1)
		go func(i int, m Model) {
			defer wg.Done()
			h := sha256.New()
			for _, p := range problems {
				pinSweep(func(opts GenOptions) {
					h.Write([]byte(m.Generate(p, opts)))
					h.Write([]byte{0})
				})
			}
			h.Sum(sums[i][:0])
		}(i, m)
	}
	wg.Wait()
	all := sha256.New()
	for _, s := range sums {
		all.Write(s[:])
	}
	if got := hex.EncodeToString(all.Sum(nil)); got != generateDigest {
		t.Errorf("digest of all generations = %s, pinned %s", got, generateDigest)
	}
}

// fprintfSeed is the seed derivation as it was written before the
// inline hash: the same fields formatted into an FNV-1a hash.Hash64.
func fprintfSeed(m Model, p dataset.Problem, opts GenOptions, perSample bool) int64 {
	h := fnv.New64a()
	sample, shots := opts.Sample, opts.Shots
	variant := string(p.Variant)
	id := p.ID
	if opts.Temperature == 0 {
		sample = 0
	}
	if !perSample {
		sample, shots, variant = 0, 0, ""
		id = strings.TrimSuffix(strings.TrimSuffix(id, "-s"), "-t")
	}
	tag := "latent"
	if perSample {
		tag = "sample"
	}
	fmt.Fprintf(h, "%s|%s|%s|%s|%d|%d", tag, m.Name, id, variant, shots, sample)
	return int64(h.Sum64())
}

// TestSeedMatchesFprintfForm pins the inline FNV-1a of Model.seed to
// the formatted form over the zoo, the full corpus, the whole pinSweep
// and both streams.
func TestSeedMatchesFprintfForm(t *testing.T) {
	problems := augment.ExpandCorpus(dataset.Generate())
	if testing.Short() {
		problems = problems[:60]
	}
	for _, m := range Models {
		for _, p := range problems {
			pinSweep(func(opts GenOptions) {
				for _, perSample := range []bool{true, false} {
					if got, want := m.seed(p, opts, perSample), fprintfSeed(m, p, opts, perSample); got != want {
						t.Fatalf("%s on %s %+v perSample=%v: seed %d, Fprintf form %d", m.Name, p.ID, opts, perSample, got, want)
					}
				}
			})
		}
	}
	// Multi-digit and negative numbers take the strconv path too.
	p := problems[0]
	for _, opts := range []GenOptions{{Sample: 10, Temperature: 1}, {Sample: 12345, Shots: 99, Temperature: 1}, {Sample: -7, Shots: -1, Temperature: 1}} {
		if got, want := Models[0].seed(p, opts, true), fprintfSeed(Models[0], p, opts, true); got != want {
			t.Errorf("%+v: seed %d, Fprintf form %d", opts, got, want)
		}
	}
}
