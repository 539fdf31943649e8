package llm

import (
	"strings"
	"testing"

	"cloudeval/internal/augment"
	"cloudeval/internal/dataset"
	"cloudeval/internal/scenario"
)

// postprocessOracle is Postprocess as it was written before it worked
// on offsets: split into lines, rejoin the kept ones, trim, append a
// newline. Kept, with its own helpers, as what FuzzPostprocess and
// TestPostprocessTable4 hold Postprocess to.
func postprocessOracle(response string) string {
	out := response
	if extracted, ok := oracleExtractDelimited(out); ok {
		return strings.TrimSpace(extracted) + "\n"
	}
	lines := strings.Split(out, "\n")
	for i, ln := range lines {
		if strings.Contains(ln, "Here") && i+1 < len(lines) {
			candidate := strings.Join(lines[i+1:], "\n")
			if oracleLooksLikeYAMLStart(candidate) {
				out = candidate
			}
			break
		}
	}
	lines = strings.Split(out, "\n")
	for i, ln := range lines {
		if scenario.IsDocStartLine(strings.TrimSpace(ln)) {
			out = strings.Join(lines[i:], "\n")
			break
		}
	}
	return strings.TrimSpace(out) + "\n"
}

func oracleExtractDelimited(s string) (string, bool) {
	for _, d := range delimiters {
		start := strings.Index(s, d.open)
		if start < 0 {
			continue
		}
		rest := s[start+len(d.open):]
		end := strings.Index(rest, d.close)
		if nl := strings.IndexByte(rest, '\n'); d.info && nl >= 0 && (end < 0 || nl < end) {
			rest = rest[nl+1:]
			end = strings.Index(rest, d.close)
		}
		if end < 0 {
			return strings.TrimLeft(rest, "\n"), true
		}
		return strings.Trim(rest[:end], "\n") + "\n", true
	}
	return "", false
}

func oracleLooksLikeYAMLStart(s string) bool {
	t := strings.TrimSpace(s)
	if t == "" {
		return false
	}
	first := strings.SplitN(t, "\n", 2)[0]
	return strings.Contains(first, ":") || strings.HasPrefix(first, "-") || strings.HasPrefix(first, "```")
}

// table4Responses is every distinct raw response of the Table 4
// campaign: the zoo over the expanded corpus at the default options,
// English-only models skipping translated questions.
func table4Responses() []string {
	seen := map[string]bool{}
	var out []string
	problems := augment.ExpandCorpus(dataset.Generate())
	for _, m := range Models {
		for _, p := range problems {
			if m.EnglishOnly && p.Variant == dataset.Translated {
				continue
			}
			if r := m.Generate(p, GenOptions{}); !seen[r] {
				seen[r] = true
				out = append(out, r)
			}
		}
	}
	return out
}

// TestPostprocessTable4 holds Postprocess to the oracle on every
// response the Table 4 campaign post-processes.
func TestPostprocessTable4(t *testing.T) {
	responses := table4Responses()
	for _, r := range responses {
		if got, want := Postprocess(r), postprocessOracle(r); got != want {
			t.Errorf("Postprocess(%q)\n = %q\noracle %q", r, got, want)
		}
	}
	t.Logf("%d distinct responses", len(responses))
}

// FuzzPostprocess: Postprocess equals the oracle on any response.
// Seeded with the Table 4 responses and with what the zoo never writes:
// CRLF line endings, Unicode spaces TrimSpace strips, unclosed and
// info-string fences, "Here" with nothing after it, the empty string.
func FuzzPostprocess(f *testing.F) {
	for _, r := range table4Responses() {
		f.Add(r)
	}
	yaml := "apiVersion: v1\nkind: Pod\nmetadata:\n  name: x\n"
	crlf := strings.ReplaceAll(yaml, "\n", "\r\n")
	for _, s := range []string{
		"",
		"\n",
		"   \n",
		"Sure!\r\n```yaml\r\n" + crlf + "```\r\nDone.\r\n",
		"Here is the YAML:\r\n" + crlf,
		"The manifest:\r\n" + crlf,
		"\u00a0" + yaml + "\u2028",
		"```yaml\n" + yaml + "\u00a0\u2028```\n",
		"\u2028\u00a0Here is it:\n" + yaml + "\u00a0",
		"Here:\n\u00a0" + yaml,
		"\u00a0\u2028",
		"```yaml\n" + yaml,
		"```yml\n" + yaml,
		"```yml\r\n" + yaml + "```",
		"<code>\n" + yaml,
		`\begin{code}` + "\n" + yaml,
		"START SOLUTION\n" + yaml,
		"```a: 1```",
		"```a: 1",
		"Here",
		yaml + "Here",
		"Here\n",
		"Here\n\n- a\n",
		"Here is it:\nno yaml here\n" + yaml,
		"apiVersion: v0\nHere is the fixed one:\nkind: Pod\n",
		"services: web and db, wired as follows\n" + yaml,
		"Let me explain.\n  static_resources:\n  listeners: []",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := Postprocess(s), postprocessOracle(s); got != want {
			t.Errorf("Postprocess(%q) = %q, oracle %q", s, got, want)
		}
	})
}

var postprocessSink string

// TestPostprocessAllocs: for every wrap style of the zoo the answer is
// followed by a newline, so Postprocess returns a slice of the response
// and allocates nothing.
func TestPostprocessAllocs(t *testing.T) {
	answer := "apiVersion: v1\nkind: Pod\nmetadata:\n  name: x\n"
	for style := WrapPlain; style <= WrapSolution; style++ {
		pre, post := style.affixes()
		raw := pre + answer + post
		if got := Postprocess(raw); got != answer {
			t.Errorf("style %d: Postprocess = %q, want %q", style, got, answer)
		}
		if n := testing.AllocsPerRun(100, func() { postprocessSink = Postprocess(raw) }); n != 0 {
			t.Errorf("style %d: Postprocess allocates %v times, want 0", style, n)
		}
	}
}
