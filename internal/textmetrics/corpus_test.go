package textmetrics_test

import (
	"testing"

	"cloudeval/internal/augment"
	"cloudeval/internal/dataset"
	"cloudeval/internal/llm"
	"cloudeval/internal/prompt"
	"cloudeval/internal/textmetrics"
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
