package yamlx_test

// In the external test package because the corpus packages import yamlx.

import (
	"strconv"
	"strings"
	"testing"

	"cloudeval/internal/augment"
	"cloudeval/internal/dataset"
	"cloudeval/internal/llm"
	"cloudeval/internal/yamlx"
)

// distinctReferences returns the corpus's labeled references, each once.
func distinctReferences() []string {
	seen := map[string]bool{}
	var refs []string
	for _, p := range augment.ExpandCorpus(dataset.Generate()) {
		if !seen[p.ReferenceYAML] {
			seen[p.ReferenceYAML] = true
			refs = append(refs, p.ReferenceYAML)
		}
	}
	return refs
}

// reparses checks that docs survive MarshalAll → ParseAll as Equal
// trees, document by document.
func reparses(t *testing.T, what string, docs []*yamlx.Node) {
	t.Helper()
	out := yamlx.MarshalAll(docs)
	again, err := yamlx.ParseAll(out)
	if err != nil {
		t.Errorf("%s: marshalled form does not parse: %v\n%s", what, err, out)
		return
	}
	if len(again) != len(docs) {
		t.Errorf("%s: %d documents came back as %d\n%s", what, len(docs), len(again), out)
		return
	}
	for i := range docs {
		if !yamlx.Equal(docs[i], again[i]) {
			t.Errorf("%s: document %d changed across Marshal → Parse\nwas  %s\nis   %s", what, i,
				yamlx.MarshalFlow(docs[i]), yamlx.MarshalFlow(again[i]))
		}
	}
}

// TestCorpusRoundTrip holds the emitter to the parser over the YAML
// this repository actually reads: every distinct reference, and every
// distinct post-processed Table 4 answer the parser accepts (the rest
// is prose, truncations and broken indentation, which is the models'
// doing), must come back from Parse → Marshal → Parse as an Equal tree.
// The corruptors, kubesim's apply and the KV metrics all rest on it.
func TestCorpusRoundTrip(t *testing.T) {
	refs := distinctReferences()
	if len(refs) != 312 {
		t.Errorf("%d distinct references, want 312", len(refs))
	}
	for _, ref := range refs {
		docs, err := yamlx.ParseAll([]byte(ref))
		if err != nil {
			t.Errorf("reference does not parse: %v\n%s", err, ref)
			continue
		}
		reparses(t, "reference", docs)
	}
	if testing.Short() {
		return
	}
	seen := map[string]bool{}
	parsed := 0
	problems := augment.ExpandCorpus(dataset.Generate())
	for _, m := range llm.Models {
		for _, p := range problems {
			if m.EnglishOnly && p.Variant == dataset.Translated {
				continue
			}
			answer := llm.Postprocess(m.Generate(p, llm.GenOptions{}))
			if seen[answer] {
				continue
			}
			seen[answer] = true
			docs, err := yamlx.ParseAll([]byte(answer))
			if err != nil {
				continue
			}
			parsed++
			reparses(t, m.Name+" on "+p.ID, docs)
		}
	}
	if len(seen) != 4909 || parsed != 3336 {
		t.Errorf("%d distinct answers, %d parse; want 4909 / 3336", len(seen), parsed)
	}
}

// FuzzParseMarshalReparses: whatever ParseAll accepts — model output,
// so anything — MarshalAll, MarshalFlow and Clone take without
// panicking, and MarshalAll's output is itself accepted. Equal trees
// are not asserted here: inputs like "0: {:}" (an empty flow key) are
// a known long tail where the emitter's rendering parses to a different
// tree; TestCorpusRoundTrip asserts equality where it matters.
func FuzzParseMarshalReparses(f *testing.F) {
	for _, ref := range distinctReferences() {
		f.Add(ref)
	}
	for _, s := range []string{
		"", "\n", "---\n", "a: 1\n---\nb: 2\n...\n", "- a\n- b: c\n  d: [1, {e: f}]\n",
		"args:\n- \"echo \\\"hello: world\\\"\"", `x: "a \" # b"`, `"k\"x": v`, `'it''s: x'`, `- "a\\": b`,
		"k: |\n  line\n   more\n", "k: >-\n  folded\n", "? a\n: b\n", "a: &x 1\nb: *x\n", "0: {:}",
		"a:\tb\r\nc: 'd'\r\n", "- - - a\n", "{a: [1, 2], b: {c: d}}", "key: \"unterminated", "a: b: c",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		docs, err := yamlx.ParseAll([]byte(src))
		if err != nil {
			return
		}
		for _, d := range docs {
			yamlx.MarshalFlow(d)
			d.Clone()
		}
		out := yamlx.MarshalAll(docs)
		if _, err := yamlx.ParseAll(out); err != nil {
			t.Errorf("ParseAll accepts %q but not its MarshalAll:\n%q\n%v", src, out, err)
		}
	})
}

// TestInferKindMatchesOracleOnCorpus holds inferKind's byte scan to the
// strconv-only function it replaced over the text this repository
// reads: every whitespace-separated token (a trailing ':' or ',' off
// and on) of every distinct reference and post-processed Table 4
// answer, and every key and scalar of those that parse.
func TestInferKindMatchesOracleOnCorpus(t *testing.T) {
	texts := distinctReferences()
	if !testing.Short() {
		seen := map[string]bool{}
		problems := augment.ExpandCorpus(dataset.Generate())
		for _, m := range llm.Models {
			for _, p := range problems {
				if m.EnglishOnly && p.Variant == dataset.Translated {
					continue
				}
				if answer := llm.Postprocess(m.Generate(p, llm.GenOptions{})); !seen[answer] {
					seen[answer] = true
					texts = append(texts, answer)
				}
			}
		}
	}
	checked := map[string]bool{}
	check := func(s string) {
		if checked[s] {
			return
		}
		checked[s] = true
		if got, want := yamlx.InferKind(s), yamlx.InferKindOracle(s); got != want {
			t.Errorf("inferKind(%q) = %v, the oracle says %v", s, got, want)
		}
	}
	var walk func(n *yamlx.Node)
	walk = func(n *yamlx.Node) {
		if n == nil {
			return
		}
		switch n.Kind {
		case yamlx.MapKind:
			for _, e := range n.Entries {
				check(e.Key)
				walk(e.Value)
			}
		case yamlx.SeqKind:
			for _, it := range n.Items {
				walk(it)
			}
		case yamlx.StringKind:
			check(n.Str)
		case yamlx.IntKind:
			check(strconv.FormatInt(n.Int, 10))
		case yamlx.FloatKind:
			check(strconv.FormatFloat(n.Float, 'g', -1, 64))
		}
	}
	for _, text := range texts {
		for _, tok := range strings.Fields(text) {
			check(tok)
			check(strings.TrimRight(tok, ":,"))
		}
		docs, err := yamlx.ParseAll([]byte(text))
		if err != nil {
			continue
		}
		for _, d := range docs {
			walk(d)
		}
	}
	t.Logf("%d distinct texts checked over %d documents", len(checked), len(texts))
}
