// Package jsonpath evaluates the subset of kubectl's JSONPath templates
// that CloudEval-YAML unit tests use with "kubectl get -o jsonpath=...":
//
//	{.status.hostIP}
//	{.items[0].spec.containers[0].env[*].name}
//	{.items..metadata.name}
//	{.spec.containers[0].resources.limits.cpu}
//
// A template is one or more {expression} segments, written one after
// the other. An expression is a chain of steps over the object tree,
// each starting with '.' or '[': field access (.name or ['name']),
// index ([0]), wildcard ([*]) and recursive descent (..name). Multiple
// results within one expression join with single spaces, matching
// kubectl. Text outside the braces, a leading $ or bare name, spaces
// between steps, .[N] and a trailing '.' are kubectl forms no corpus
// template writes, and are refused.
package jsonpath

import (
	"fmt"
	"strconv"
	"strings"

	"cloudeval/internal/yamlx"
)

// Template is a parsed JSONPath template: the steps of every
// expression, one after the other. Parse refills a Template in place,
// so a caller that renders one template after another keeps one
// Template and its storage; Append only reads it, and one Template
// serves any number of goroutines between Parses.
type Template struct {
	steps []step
	ends  []int // where each expression's steps end in steps
}

// Parse reads template into t, replacing what t held. After an error
// t holds no template until the next Parse succeeds.
func (t *Template) Parse(template string) error {
	t.steps, t.ends = t.steps[:0], t.ends[:0]
	for i := 0; i < len(template); {
		if template[i] != '{' {
			return fmt.Errorf("jsonpath: text outside {...} is not supported: %q", template)
		}
		end := strings.IndexByte(template[i:], '}')
		if end < 0 {
			return fmt.Errorf("jsonpath: unterminated '{' in %q", template)
		}
		expr := strings.TrimSpace(template[i+1 : i+end])
		i += end + 1
		if strings.HasPrefix(expr, "range") || strings.HasPrefix(expr, "end") {
			return fmt.Errorf("jsonpath: range templates are not supported: %q", expr)
		}
		var err error
		if t.steps, err = appendSteps(t.steps, expr); err != nil {
			return err
		}
		t.ends = append(t.ends, len(t.steps))
	}
	return nil
}

// Append renders the template against root onto dst: each expression's
// matches in document order, separated by single spaces. It walks each
// expression depth first and allocates nothing but what dst grows by
// (and the flow text of a matched mapping or sequence).
func (t *Template) Append(dst []byte, root *yamlx.Node) []byte {
	start := 0
	for _, end := range t.ends {
		dst, _ = appendMatches(dst, root, t.steps[start:end], 0)
		start = end
	}
	return dst
}

// appendMatches appends every node the steps reach from n, counting
// them on from k, which is how many the expression has written already:
// all but its first follow a space.
func appendMatches(dst []byte, n *yamlx.Node, steps []step, k int) ([]byte, int) {
	if len(steps) == 0 {
		if k > 0 {
			dst = append(dst, ' ')
		}
		return appendNode(dst, n), k + 1
	}
	if n == nil {
		return dst, k
	}
	s, rest := &steps[0], steps[1:]
	switch s.kind {
	case fieldStep:
		if v := n.Get(s.name); v != nil {
			return appendMatches(dst, v, rest, k)
		}
	case escapedFieldStep:
		if n.Kind == yamlx.MapKind {
			for _, e := range n.Entries {
				if keyIs(e.Key, s.name) {
					return appendMatches(dst, e.Value, rest, k)
				}
			}
		}
	case indexStep:
		if n.Kind == yamlx.SeqKind && s.index >= 0 && s.index < len(n.Items) {
			return appendMatches(dst, n.Items[s.index], rest, k)
		}
	case wildcardStep:
		switch n.Kind {
		case yamlx.SeqKind:
			for _, it := range n.Items {
				dst, k = appendMatches(dst, it, rest, k)
			}
		case yamlx.MapKind:
			for _, e := range n.Entries {
				dst, k = appendMatches(dst, e.Value, rest, k)
			}
		}
	case recursiveStep:
		return appendRecursive(dst, n, s.name, rest, k)
	}
	return dst, k
}

// appendRecursive applies the steps after "..name" to every value under
// n whose key is name, each before the values below it.
func appendRecursive(dst []byte, n *yamlx.Node, name string, rest []step, k int) ([]byte, int) {
	if n == nil {
		return dst, k
	}
	switch n.Kind {
	case yamlx.MapKind:
		for _, e := range n.Entries {
			if e.Key == name {
				dst, k = appendMatches(dst, e.Value, rest, k)
			}
			dst, k = appendRecursive(dst, e.Value, name, rest, k)
		}
	case yamlx.SeqKind:
		for _, it := range n.Items {
			dst, k = appendRecursive(dst, it, name, rest, k)
		}
	}
	return dst, k
}

// appendNode writes a match as kubectl prints it: a scalar as typed, a
// mapping or sequence in flow form, nothing for a missing node.
func appendNode(dst []byte, n *yamlx.Node) []byte {
	switch {
	case n == nil:
		return dst
	case n.Kind == yamlx.IntKind:
		return strconv.AppendInt(dst, n.Int, 10)
	case n.IsScalar():
		return append(dst, n.ScalarString()...)
	}
	return append(dst, yamlx.MarshalFlow(n)...)
}

type stepKind int

const (
	fieldStep        stepKind = iota
	escapedFieldStep          // a quoted name with backslash escapes, kept as written
	indexStep
	wildcardStep
	recursiveStep
)

type step struct {
	kind  stepKind
	name  string
	index int
}

// appendSteps appends the steps of one expression to steps.
func appendSteps(steps []step, expr string) ([]step, error) {
	i := 0
	for i < len(expr) {
		switch {
		case strings.HasPrefix(expr[i:], ".."):
			i += 2
			name, n := readName(expr[i:])
			if name == "" {
				return steps, fmt.Errorf("jsonpath: '..' must be followed by a field name in %q", expr)
			}
			i += n
			steps = append(steps, step{kind: recursiveStep, name: name})
		case expr[i] == '.':
			i++
			name, n := readName(expr[i:])
			if name == "" {
				return steps, fmt.Errorf("jsonpath: '.' must be followed by a field name in %q", expr)
			}
			i += n
			steps = append(steps, step{kind: fieldStep, name: name})
		case expr[i] == '[':
			end := strings.IndexByte(expr[i:], ']')
			if end < 0 {
				return steps, fmt.Errorf("jsonpath: unterminated '[' in %q", expr)
			}
			inner := strings.TrimSpace(expr[i+1 : i+end])
			i += end + 1
			switch {
			case inner == "*":
				steps = append(steps, step{kind: wildcardStep})
			case len(inner) >= 2 && (inner[0] == '\'' || inner[0] == '"'):
				name, kind := inner[1:len(inner)-1], fieldStep
				if strings.IndexByte(name, '\\') >= 0 {
					kind = escapedFieldStep
				}
				steps = append(steps, step{kind: kind, name: name})
			default:
				idx, err := strconv.Atoi(inner)
				if err != nil {
					return steps, fmt.Errorf("jsonpath: bad index %q", inner)
				}
				steps = append(steps, step{kind: indexStep, index: idx})
			}
		default:
			return steps, fmt.Errorf("jsonpath: %q in %q is not supported: a step starts with '.' or '['", expr[i:i+1], expr)
		}
	}
	return steps, nil
}

// keyIs reports whether key is the quoted field name escaped, read
// with kubectl's backslash escapes: ['log\.level'] names the key
// "log.level". It compares in place, so a step keeps the name as the
// template wrote it.
func keyIs(key, escaped string) bool {
	for i := 0; i < len(escaped); i++ {
		if escaped[i] == '\\' && i+1 < len(escaped) {
			i++
		}
		if key == "" || key[0] != escaped[i] {
			return false
		}
		key = key[1:]
	}
	return key == ""
}

func readName(s string) (string, int) {
	i := 0
	for i < len(s) {
		c := s[i]
		if c == '.' || c == '[' || c == ']' || c == ' ' {
			break
		}
		i++
	}
	return s[:i], i
}
