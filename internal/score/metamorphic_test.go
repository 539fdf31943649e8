package score

import (
	"regexp"
	"strings"
	"testing"

	"cloudeval/internal/yamlx"
)

// reverseKeys reverses the entry order of every mapping under n.
func reverseKeys(n *yamlx.Node) {
	for i, j := 0, len(n.Entries)-1; i < j; i, j = i+1, j-1 {
		n.Entries[i], n.Entries[j] = n.Entries[j], n.Entries[i]
	}
	for _, e := range n.Entries {
		reverseKeys(e.Value)
	}
	for _, item := range n.Items {
		reverseKeys(item)
	}
}

var plainTopLevelPair = regexp.MustCompile(`^[A-Za-z]+: [A-Za-z0-9/.]+$`)

// injectComments puts a full-line comment before every top-level line
// (a line at indent 0 is never inside a block scalar) and a trailing
// one after the plain top-level pairs such as "kind: Pod".
func injectComments(text string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(text, "\n") {
		body := strings.TrimSuffix(line, "\n")
		if body != "" && body[0] != ' ' {
			b.WriteString("# injected\n")
		}
		if plainTopLevelPair.MatchString(body) {
			line = body + " # injected" + line[len(body):]
		}
		b.WriteString(line)
	}
	return b.String()
}

// TestScoringMetamorphic: rewritings of a reference that do not change
// what it says must not change what it scores. For every distinct
// reference of the corpus, the label-stripped text scores 1 on all five
// text and YAML-aware metrics; its Marshal round-trip, a rendering with
// every mapping's keys reversed, a copy with comments injected and a
// CRLF copy all score 1 on both KV metrics, and the CRLF copy on the
// three text metrics as well (line endings are normalised; the others
// change the text, so BLEU and edit distance may move).
func TestScoringMetamorphic(t *testing.T) {
	seen := map[*refContext]bool{}
	for _, p := range fullCorpus() {
		ref := refFor(p)
		if seen[ref] {
			continue
		}
		seen[ref] = true
		clean := ref.kv.Clean

		one := textScores{1, 1, 1, 1, 1}
		if got := ref.score(clean); got != one {
			t.Errorf("%s: the label-stripped reference scores %+v, want all 1", p.ID, got)
		}
		if got := ref.score(strings.ReplaceAll(clean, "\n", "\r\n")); got != one {
			t.Errorf("%s: the CRLF copy scores %+v, want all 1", p.ID, got)
		}

		docs, err := yamlx.ParseAll([]byte(clean))
		if err != nil {
			t.Errorf("%s: reference does not parse: %v", p.ID, err)
			continue
		}
		reversed := make([]*yamlx.Node, len(docs))
		for i, d := range docs {
			reversed[i] = d.Clone()
			reverseKeys(reversed[i])
		}
		for what, text := range map[string]string{
			"Marshal round-trip": string(yamlx.MarshalAll(docs)),
			"key-reversed":       string(yamlx.MarshalAll(reversed)),
			"comment-injected":   injectComments(clean),
		} {
			if got := ref.score(text); got.kvExact != 1 || got.kvWildcard != 1 {
				t.Errorf("%s: the %s copy scores kv_exact %v, kv_wildcard %v, want 1 and 1\n%s",
					p.ID, what, got.kvExact, got.kvWildcard, text)
			}
		}
	}
	if len(seen) != 312 {
		t.Errorf("%d distinct references, want 312", len(seen))
	}
}
