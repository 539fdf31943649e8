package textmetrics_test

import (
	"testing"

	"cloudeval/internal/augment"
	"cloudeval/internal/dataset"
	"cloudeval/internal/llm"
	"cloudeval/internal/prompt"
	"cloudeval/internal/textmetrics"
	"cloudeval/internal/yamlmatch"
)

// TestEstimateTokensOverCorpus holds the byte-wise fast path of
// EstimateTokens to the rune loop it falls back to, and both to the
// tokenizer-based definition, over the texts that are metered: every
// rendered prompt (0–3 shots), every question (the translated ones are
// CJK with ASCII identifiers inside), every reference, and every raw
// and post-processed answer of the Table 4 zoo.
func TestEstimateTokensOverCorpus(t *testing.T) {
	problems := augment.ExpandCorpus(dataset.Generate())
	if testing.Short() {
		problems = problems[:90]
	}
	texts, nonASCII := 0, 0
	check := func(what, s string) {
		texts++
		for i := 0; i < len(s); i++ {
			if s[i] >= 0x80 {
				nonASCII++
				break
			}
		}
		got := textmetrics.EstimateTokens(s)
		if runes, toks := textmetrics.EstimateTokensRunes(s), textmetrics.TokenizeEstimate(s); got != runes || got != toks {
			t.Errorf("%s: EstimateTokens = %d, rune loop %d, tokenizer-based %d\n%q", what, got, runes, toks, s)
		}
	}
	for _, p := range problems {
		for shots := 0; shots <= 3; shots++ {
			check(p.ID+" prompt", prompt.Build(p, shots))
		}
		check(p.ID+" question", p.Question)
		check(p.ID+" reference", p.ReferenceYAML)
		for _, m := range llm.Models {
			raw := m.Generate(p, llm.GenOptions{})
			check(p.ID+" "+m.Name+" response", raw)
			check(p.ID+" "+m.Name+" answer", llm.Postprocess(raw))
		}
	}
	if nonASCII == 0 || nonASCII == texts {
		t.Errorf("%d of %d texts leave ASCII; the corpus should exercise both paths", nonASCII, texts)
	}
}

// TestBLEURefTables compiles every distinct reference of the corpus and
// checks the two open-addressed tables behind BLEURef.Score: every
// reference n-gram (n = 1..4) is found, from its prefix, with the count
// the oracle's own n-gram counter gives; no probe sequence laps its
// table; both tables stay at load ≤ 0.5; and what the 312 compiled
// references retain stays under the 3 MiB DESIGN.md §2.7 quotes.
func TestBLEURefTables(t *testing.T) {
	seen := map[string]bool{}
	bytes, maxProbes := 0, 0
	for _, p := range augment.ExpandCorpus(dataset.Generate()) {
		if seen[p.ReferenceYAML] {
			continue
		}
		seen[p.ReferenceYAML] = true
		clean := yamlmatch.StripLabels(p.ReferenceYAML)
		rep, err := textmetrics.NewBLEURef(clean).CheckTables(clean)
		if err != nil {
			t.Errorf("%s: %v", p.ID, err)
			continue
		}
		if rep.VocabLoad > 0.5 || rep.ExtLoad > 0.5 {
			t.Errorf("%s: load %.3f (vocabulary) / %.3f (extensions), want ≤ 0.5", p.ID, rep.VocabLoad, rep.ExtLoad)
		}
		bytes += rep.Bytes
		if rep.MaxProbes > maxProbes {
			maxProbes = rep.MaxProbes
		}
	}
	if len(seen) != 312 {
		t.Errorf("%d distinct references, want 312", len(seen))
	}
	if bytes > 3<<20 {
		t.Errorf("compiled references retain %d bytes of tables, want ≤ 3 MiB", bytes)
	}
	t.Logf("%d references, %d table bytes, longest probe sequence %d", len(seen), bytes, maxProbes)
}
