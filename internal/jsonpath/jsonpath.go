// Package jsonpath evaluates the subset of kubectl's JSONPath templates
// that CloudEval-YAML unit tests use with "kubectl get -o jsonpath=...":
//
//	{.status.hostIP}
//	{.items[0].spec.containers[0].env[*].name}
//	{.items..metadata.name}
//	{.spec.containers[0].resources.limits.cpu}
//
// A template mixes literal text with {expression} segments. Expressions
// are chains of steps over the object tree: field access (.name or
// ['name']), index ([0]), wildcard ([*]), and recursive descent
// (..name). Multiple results within one expression join with single
// spaces, matching kubectl.
package jsonpath

import (
	"fmt"
	"hash/maphash"
	"strconv"
	"strings"

	"cloudeval/internal/memo"
	"cloudeval/internal/yamlx"
)

// Eval renders a JSONPath template against a YAML tree.
func Eval(root *yamlx.Node, template string) (string, error) {
	t, err := Compile(template)
	if err != nil {
		return "", err
	}
	return string(t.Append(nil, root)), nil
}

// Template is a compiled JSONPath template: its literal text and the
// steps of each expression, parsed once and only read afterwards, so
// one Template serves any number of goroutines.
type Template struct {
	parts []part
}

// part is literal text, or an expression's steps when expr is set.
type part struct {
	lit   string
	expr  bool
	steps []step
}

// Compile parses a template. Templates come from script text, run
// again on every execution of the script, so each is compiled once per
// process while its entry lasts; because the text may be expanded from
// what a script read at run time, the cache is held to a byte budget
// (see the memo package).
func Compile(template string) (*Template, error) {
	c, _, _ := templates.Do(template, func() (compiled, int64, error) {
		t, err := compile(template)
		return compiled{t, err}, templateCost(template), nil
	})
	return c.t, c.err
}

type compiled struct {
	t   *Template
	err error
}

// templateBudget holds, many times over, the 74 templates every
// experiment of cloudeval figures together compiles, charged 54 KB.
const templateBudget = 4 << 20

// templateCost charges an entry its key text plus its compiled
// Template, measured at 12.7 times the text on the corpus's templates.
func templateCost(template string) int64 { return memo.EntryOverhead + 16*int64(len(template)) }

var (
	templateSeed = maphash.MakeSeed()
	templates    = memo.NewLRU[string, compiled](templateHash, templateBudget)
)

func templateHash(s string) uint64 { return maphash.String(templateSeed, s) }

func compile(template string) (*Template, error) {
	t := &Template{}
	for i := 0; i < len(template); {
		open := strings.IndexByte(template[i:], '{')
		if open < 0 {
			t.parts = append(t.parts, part{lit: template[i:]})
			break
		}
		if open > 0 {
			t.parts = append(t.parts, part{lit: template[i : i+open]})
			i += open
		}
		end := strings.IndexByte(template[i:], '}')
		if end < 0 {
			return nil, fmt.Errorf("jsonpath: unterminated '{' in %q", template)
		}
		expr := strings.TrimSpace(template[i+1 : i+end])
		i += end + 1
		if strings.HasPrefix(expr, "range") || strings.HasPrefix(expr, "end") {
			return nil, fmt.Errorf("jsonpath: range templates are not supported: %q", expr)
		}
		steps, err := parseSteps(strings.TrimPrefix(expr, "$"))
		if err != nil {
			return nil, err
		}
		t.parts = append(t.parts, part{expr: true, steps: steps})
	}
	return t, nil
}

// Append renders the template against root onto dst: literal text as
// written, and each expression's matches in document order, separated
// by single spaces. It walks each expression depth first and allocates
// nothing but what dst grows by (and the flow text of a matched mapping
// or sequence).
func (t *Template) Append(dst []byte, root *yamlx.Node) []byte {
	for i := range t.parts {
		p := &t.parts[i]
		if p.expr {
			dst, _ = appendMatches(dst, root, p.steps, 0)
		} else {
			dst = append(dst, p.lit...)
		}
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
	fieldStep stepKind = iota
	indexStep
	wildcardStep
	recursiveStep
)

type step struct {
	kind  stepKind
	name  string
	index int
}

func parseSteps(expr string) ([]step, error) {
	var steps []step
	i := 0
	for i < len(expr) {
		switch {
		case strings.HasPrefix(expr[i:], ".."):
			i += 2
			name, n := readName(expr[i:])
			if name == "" {
				return nil, fmt.Errorf("jsonpath: '..' must be followed by a field name in %q", expr)
			}
			i += n
			steps = append(steps, step{kind: recursiveStep, name: name})
		case expr[i] == '.':
			i++
			if i < len(expr) && expr[i] == '[' {
				continue // ".[0]" form
			}
			name, n := readName(expr[i:])
			if name == "" {
				if i >= len(expr) {
					return steps, nil // trailing "." tolerated
				}
				return nil, fmt.Errorf("jsonpath: empty field name at %q", expr[i:])
			}
			i += n
			steps = append(steps, step{kind: fieldStep, name: name})
		case expr[i] == '[':
			end := strings.IndexByte(expr[i:], ']')
			if end < 0 {
				return nil, fmt.Errorf("jsonpath: unterminated '[' in %q", expr)
			}
			inner := strings.TrimSpace(expr[i+1 : i+end])
			i += end + 1
			switch {
			case inner == "*":
				steps = append(steps, step{kind: wildcardStep})
			case len(inner) >= 2 && (inner[0] == '\'' || inner[0] == '"'):
				steps = append(steps, step{kind: fieldStep, name: unescapeField(inner[1 : len(inner)-1])})
			default:
				idx, err := strconv.Atoi(inner)
				if err != nil {
					return nil, fmt.Errorf("jsonpath: bad index %q", inner)
				}
				steps = append(steps, step{kind: indexStep, index: idx})
			}
		case expr[i] == ' ':
			i++
		default:
			// Leading bare name (no dot), e.g. "metadata.name".
			name, n := readName(expr[i:])
			if name == "" {
				return nil, fmt.Errorf("jsonpath: unexpected character %q in %q", expr[i], expr)
			}
			i += n
			steps = append(steps, step{kind: fieldStep, name: name})
		}
	}
	return steps, nil
}

// unescapeField strips kubectl-style backslash escapes in quoted field
// names, so ['log\.level'] addresses the literal key "log.level".
func unescapeField(s string) string {
	if !strings.Contains(s, "\\") {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			i++
		}
		b.WriteByte(s[i])
	}
	return b.String()
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
