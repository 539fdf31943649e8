package llm

import (
	"strings"
	"unicode"

	"cloudeval/internal/scenario"
)

// Postprocess extracts clean YAML from a raw model response, applying
// the policies of §3.1 in order:
//
//  1. remove content before a line containing the keyword "Here";
//  2. remove content before the first line starting with a registered
//     family's document-start marker — "apiVersion:" (Kubernetes),
//     "static_resources:" (Envoy), "services:" (Compose), ... — as
//     declared by the scenario backends;
//  3. extract text enclosed by ``` fences, <code></code>,
//     \begin{code}\end{code}, or START SOLUTION / END SOLUTION.
//
// The result is the extracted text with surrounding white space
// removed, followed by one newline. Whenever a newline follows that
// text in response — as in every wrap style of the zoo — the result is
// a slice of response, not a copy, and so keeps all of response alive.
func Postprocess(response string) string {
	// Policy 3 first when explicit delimiters exist: they are the
	// strongest signal, and once a fenced block is extracted the other
	// policies must not trim it further (a document may legally put
	// "kind:" before "apiVersion:").
	lo, hi, ok := extractDelimited(response)
	if !ok {
		lo, hi = yamlStart(response), len(response)
	}
	// Trim as strings.TrimSpace does, keeping the bounds.
	hi = lo + len(strings.TrimRightFunc(response[lo:hi], unicode.IsSpace))
	lo = hi - len(strings.TrimSpace(response[lo:hi]))
	if hi < len(response) && response[hi] == '\n' {
		return response[lo : hi+1]
	}
	return response[lo:hi] + "\n"
}

// yamlStart is where policies 1 and 2 start an undelimited answer.
func yamlStart(s string) int {
	// Policy 1: skip the first line containing "Here" when what follows
	// it looks like YAML.
	start := 0
	if i := strings.Index(s, "Here"); i >= 0 {
		if nl := strings.IndexByte(s[i:], '\n'); nl >= 0 && looksLikeYAMLStart(s[i+nl+1:]) {
			start = i + nl + 1
		}
	}
	// Policy 2: cut to the first family document-start line. Postprocess
	// has no problem context, so every family's marker applies to every
	// answer; scenario.IsDocStartLine keeps prose that merely begins
	// with a block marker from matching.
	for i := start; ; {
		line := s[i:]
		nl := strings.IndexByte(line, '\n')
		if nl >= 0 {
			line = line[:nl]
		}
		if scenario.IsDocStartLine(strings.TrimSpace(line)) {
			return i
		}
		if nl < 0 {
			return start
		}
		i += nl + 1
	}
}

// delimiter is one policy-3 pair. info marks an opener that may be
// followed by an info string naming the language ("```yml", "```Yaml").
type delimiter struct {
	open, close string
	info        bool
}

var delimiters = []delimiter{
	{"```yaml", "```", false},
	{"```YAML", "```", false},
	{"```", "```", true},
	{"<code>", "</code>", false},
	{`\begin{code}`, `\end{code}`, false},
	{"START SOLUTION", "END SOLUTION", false},
}

// extractDelimited returns the bounds of the text enclosed by the first
// delimiter pair, in the order of delimiters, that opens in s.
func extractDelimited(s string) (lo, hi int, ok bool) {
	for _, d := range delimiters {
		start := strings.Index(s, d.open)
		if start < 0 {
			continue
		}
		lo = start + len(d.open)
		end := strings.Index(s[lo:], d.close)
		// The rest of the opener's line is its info string, not YAML —
		// unless the block closes on that same line ("```a: 1```").
		if nl := strings.IndexByte(s[lo:], '\n'); d.info && nl >= 0 && (end < 0 || nl < end) {
			lo += nl + 1
			end = strings.Index(s[lo:], d.close)
		}
		if end < 0 {
			// Unclosed fence: take everything after it.
			return lo, len(s), true
		}
		return lo, lo + end, true
	}
	return 0, 0, false
}

// looksLikeYAMLStart reports whether the first non-blank line of s
// reads like a YAML mapping entry or sequence item.
func looksLikeYAMLStart(s string) bool {
	first, _, _ := strings.Cut(strings.TrimSpace(s), "\n")
	return strings.Contains(first, ":") || strings.HasPrefix(first, "-")
}
