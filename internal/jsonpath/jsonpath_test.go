package jsonpath

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"cloudeval/internal/dataset"
	"cloudeval/internal/yamlx"
)

const podList = `items:
- metadata:
    name: pod-a
    labels:
      app: web
  status:
    hostIP: 10.0.0.1
    phase: Running
  spec:
    containers:
    - name: main
      env:
      - name: REGISTRY_HOST
        value: reg.local
      - name: REGISTRY_PORT
        value: "5000"
      resources:
        limits:
          cpu: 100m
          memory: 50Mi
- metadata:
    name: pod-b
  status:
    hostIP: 10.0.0.2
    phase: Pending
`

// eval renders template against root as kubectl get -o jsonpath does:
// Compile, then Append.
func eval(root *yamlx.Node, template string) (string, error) {
	t, err := Compile(template)
	if err != nil {
		return "", err
	}
	return string(t.Append(nil, root)), nil
}

func parse(t *testing.T, src string) *yamlx.Node {
	t.Helper()
	n, err := yamlx.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestEvalSimplePaths(t *testing.T) {
	root := parse(t, podList)
	cases := []struct{ tmpl, want string }{
		{"{.items[0].metadata.name}", "pod-a"},
		{"{.items[0].status.hostIP}", "10.0.0.1"},
		{"{.items[1].status.phase}", "Pending"},
		{"{.items[0].spec.containers[0].resources.limits.cpu}", "100m"},
		{"{.items[0].spec.containers[0].resources.limits.memory}", "50Mi"},
		{"{.items[0].spec.containers[0].env[*].name}", "REGISTRY_HOST REGISTRY_PORT"},
		{"{.items..metadata.name}", "pod-a pod-b"},
		{"{.items[*].status.hostIP}", "10.0.0.1 10.0.0.2"},
		{"{.items[0].metadata.labels.app}", "web"},
		{"{.items[0].metadata.labels['app']}", "web"},
		{"{.missing.path}", ""},
		{"{.items[99].metadata.name}", ""},
	}
	for _, c := range cases {
		got, err := eval(root, c.tmpl)
		if err != nil {
			t.Errorf("eval(%q) error: %v", c.tmpl, err)
			continue
		}
		if got != c.want {
			t.Errorf("eval(%q) = %q, want %q", c.tmpl, got, c.want)
		}
	}
}

// TestEvalAdjacentExpressions: expressions written one after the other
// render one after the other, with nothing between them.
func TestEvalAdjacentExpressions(t *testing.T) {
	root := parse(t, podList)
	got, err := eval(root, "{.items[0].status.hostIP}{.items[0].status.phase}")
	if err != nil {
		t.Fatal(err)
	}
	if got != "10.0.0.1Running" {
		t.Errorf("got %q", got)
	}
}

func TestEvalQuotedStringStaysString(t *testing.T) {
	root := parse(t, podList)
	got, _ := eval(root, "{.items[0].spec.containers[0].env[1].value}")
	if got != "5000" {
		t.Errorf("quoted value rendered as %q", got)
	}
}

func TestEvalErrors(t *testing.T) {
	root := parse(t, podList)
	if _, err := eval(root, "{.items[0"); err == nil {
		t.Error("unterminated brace should error")
	}
	if _, err := eval(root, "{.items[bad]}"); err == nil {
		t.Error("bad index should error")
	}
	if _, err := eval(root, "{range .items[*]}{.metadata.name}{end}"); err == nil {
		t.Error("range templates should report unsupported")
	}
}

// TestCutFormsRefused: the kubectl template forms no corpus template
// writes fail with an error naming what was refused, never with another
// value.
func TestCutFormsRefused(t *testing.T) {
	root := parse(t, "metadata:\n  name: foo\n")
	if got, err := eval(root, "{.metadata.name}"); err != nil || got != "foo" {
		t.Fatalf("eval({.metadata.name}) = %q, %v", got, err)
	}
	for _, c := range []struct{ tmpl, want string }{
		{"name={.metadata.name}", `jsonpath: text outside {...} is not supported: "name={.metadata.name}"`},
		{"{.metadata.name} {.metadata.name}", `jsonpath: text outside {...} is not supported: "{.metadata.name} {.metadata.name}"`},
		{"{.metadata.name}\n", `jsonpath: text outside {...} is not supported: "{.metadata.name}\n"`},
		{"{$.metadata.name}", `jsonpath: "$" in "$.metadata.name" is not supported: a step starts with '.' or '['`},
		{"{metadata.name}", `jsonpath: "m" in "metadata.name" is not supported: a step starts with '.' or '['`},
		{"{.metadata .name}", `jsonpath: " " in ".metadata .name" is not supported: a step starts with '.' or '['`},
		{"{.metadata.}", `jsonpath: '.' must be followed by a field name in ".metadata."`},
		{"{.items.[0]}", `jsonpath: '.' must be followed by a field name in ".items.[0]"`},
	} {
		got, err := eval(root, c.tmpl)
		if err == nil || err.Error() != c.want {
			t.Errorf("eval(%q) = %q, %v; want the error %s", c.tmpl, got, err, c.want)
		}
	}
}

func TestEvalNonScalarRendersFlow(t *testing.T) {
	root := parse(t, "spec:\n  sel:\n    app: web\n")
	got, err := eval(root, "{.spec.sel}")
	if err != nil {
		t.Fatal(err)
	}
	if got != "{app: web}" {
		t.Errorf("got %q", got)
	}
}

func TestEvalWildcardOnMap(t *testing.T) {
	root := parse(t, "labels:\n  a: x\n  b: y\n")
	got, _ := eval(root, "{.labels[*]}")
	if got != "x y" {
		t.Errorf("got %q", got)
	}
}

// jsonpathFlag matches the template of a "-o jsonpath=…" flag in a
// unit-test script, quoted or bare.
var jsonpathFlag = regexp.MustCompile(`jsonpath=('[^']*'|"[^"]*"|\S+)`)

// nestedNames has "name" keys under "name"-keyed values and in
// sequences at several depths, where a recursive descent's matches
// nest: the order of "..name" and of the steps after it shows here.
// Two of them are empty, which still take their place between spaces.
const nestedNames = `name: top
spec:
  name:
    name: inner
    items:
    - name: a
      env:
      - name: A1
        value: x
      - name: A2
  template:
    metadata:
      name: tmpl
    containers:
    - name: c0
      env:
      - name: C0E
        value: "7"
    - name: c1
      ports:
      - containerPort: 80
        name: http
items:
- name: ""
- metadata:
    name: i0
- name: null
- name:
  - n0
  - name: n1
`

// evalOracle is the evaluator Template.Append replaced: each step maps
// the whole list of current matches to the next, breadth first, and an
// expression's matches are rendered and joined with spaces.
func evalOracle(root *yamlx.Node, template string) (string, error) {
	var out strings.Builder
	i := 0
	for i < len(template) {
		if template[i] != '{' {
			return "", fmt.Errorf("jsonpath: text outside {...} is not supported: %q", template)
		}
		end := strings.IndexByte(template[i:], '}')
		if end < 0 {
			return "", fmt.Errorf("jsonpath: unterminated '{' in %q", template)
		}
		expr := template[i+1 : i+end]
		i += end + 1
		res, err := oracleExpr(root, expr)
		if err != nil {
			return "", err
		}
		parts := make([]string, len(res))
		for j, n := range res {
			parts[j] = oracleRender(n)
		}
		out.WriteString(strings.Join(parts, " "))
	}
	return out.String(), nil
}

func oracleRender(n *yamlx.Node) string {
	if n == nil {
		return ""
	}
	if n.IsScalar() {
		return n.ScalarString()
	}
	return string(yamlx.MarshalFlow(n))
}

func oracleExpr(root *yamlx.Node, expr string) ([]*yamlx.Node, error) {
	expr = strings.TrimSpace(expr)
	if strings.HasPrefix(expr, "range") || strings.HasPrefix(expr, "end") {
		return nil, fmt.Errorf("jsonpath: range templates are not supported: %q", expr)
	}
	steps, err := parseSteps(expr)
	if err != nil {
		return nil, err
	}
	current := []*yamlx.Node{root}
	for _, st := range steps {
		var next []*yamlx.Node
		for _, n := range current {
			next = append(next, oracleApply(st, n)...)
		}
		current = next
	}
	return current, nil
}

func oracleApply(s step, n *yamlx.Node) []*yamlx.Node {
	if n == nil {
		return nil
	}
	switch s.kind {
	case fieldStep:
		if v := n.Get(s.name); v != nil {
			return []*yamlx.Node{v}
		}
	case indexStep:
		if n.Kind == yamlx.SeqKind && s.index >= 0 && s.index < len(n.Items) {
			return []*yamlx.Node{n.Items[s.index]}
		}
	case wildcardStep:
		switch n.Kind {
		case yamlx.SeqKind:
			return n.Items
		case yamlx.MapKind:
			var out []*yamlx.Node
			for _, e := range n.Entries {
				out = append(out, e.Value)
			}
			return out
		}
	case recursiveStep:
		var out []*yamlx.Node
		oracleCollect(n, s.name, &out)
		return out
	}
	return nil
}

func oracleCollect(n *yamlx.Node, name string, out *[]*yamlx.Node) {
	if n == nil {
		return
	}
	switch n.Kind {
	case yamlx.MapKind:
		for _, e := range n.Entries {
			if e.Key == name {
				*out = append(*out, e.Value)
			}
			oracleCollect(e.Value, name, out)
		}
	case yamlx.SeqKind:
		for _, it := range n.Items {
			oracleCollect(it, name, out)
		}
	}
}

func TestEvalMatchesOracleOnNestedNames(t *testing.T) {
	root := parse(t, nestedNames)
	for _, c := range []struct{ tmpl, want string }{
		{"{..name}", "top {name: inner, items: [{name: a, env: [{name: A1, value: x}, {name: A2}]}]} inner a A1 A2 tmpl c0 C0E c1 http  i0  [n0, {name: n1}] n1"},
		{"{.items[*].name}", "  [n0, {name: n1}]"},
		{"{..name.name}", "inner"},
		{"{..env..value}", "x 7"},
		{"{..env[*].name}", "A1 A2 C0E"},
		{"{.spec..containers[*]..name}", "c0 C0E c1 http"},
		{"{..name[*]}", "inner [{name: a, env: [{name: A1, value: x}, {name: A2}]}] n0 {name: n1}"},
		{"{..ports[0].containerPort}{..items[3]..name}", "80[n0, {name: n1}] n1"},
	} {
		got, err := eval(root, c.tmpl)
		want, oerr := evalOracle(root, c.tmpl)
		if err != nil || oerr != nil || got != want || got != c.want {
			t.Errorf("eval(%q) = %q, %v; the oracle %q, %v; want %q", c.tmpl, got, err, want, oerr, c.want)
		}
	}
}

// FuzzEval: a template is script text, and a script is whatever the
// corpus — or a caller of POST /v1/eval — says it is. Compile and
// Append must return
// for any template, without a panic, the same result each time it is
// asked (compiled templates are cached), and what the breadth-first
// evaluator it replaced returns — output and whether it fails — over
// podList and over nestedNames. Seeded with every template the corpus
// uses and with the syntax this subset leaves out: filters, slices,
// unions, range/end, and the forms it refuses.
func FuzzEval(f *testing.F) {
	seen := map[string]bool{}
	for _, p := range dataset.Generate() {
		for _, m := range jsonpathFlag.FindAllStringSubmatch(p.UnitTest, -1) {
			if tmpl := strings.Trim(m[1], `'"`); !seen[tmpl] {
				seen[tmpl] = true
				f.Add(tmpl)
			}
		}
	}
	if len(seen) < 50 {
		f.Fatalf("only %d jsonpath templates found in the corpus", len(seen))
	}
	for _, tmpl := range []string{
		`{.items[?(@.metadata.name=="pod-a")].status.phase}`, `{.items[0:1].metadata.name}`, `{.items[-1:]}`, `{.items[0,1].metadata.name}`,
		`{range .items[*]}{.metadata.name}{"\n"}{end}`, `{.items[*]['metadata.name', 'status.phase']}`, `{..name}`, `{.items..env..value}`,
		`{$}`, `{@}`, `{.}`, `{..}`, `{`, `}`, `{}`, `{[}`, `{[']}`, `{['']}`, `{['a\.b']}`, `{["a]}`, `{.[0]}`, `{.items[ 0 ]}`, `{.items[99999999999999999999]}`,
		`name={.items[0].metadata.name} ip={.items[0].status.hostIP}`, `{.items[*].spec.containers[*].resources.limits}`, "{.a\x00b}",
	} {
		f.Add(tmpl)
	}
	var roots []*yamlx.Node
	for _, src := range []string{podList, nestedNames} {
		root, err := yamlx.ParseString(src)
		if err != nil {
			f.Fatal(err)
		}
		roots = append(roots, root)
	}
	f.Fuzz(func(t *testing.T, tmpl string) {
		for _, root := range roots {
			out, err := eval(root, tmpl)
			again, err2 := eval(root, tmpl)
			if out != again || (err == nil) != (err2 == nil) {
				t.Errorf("eval(%q) = %q, %v the first time and %q, %v the second", tmpl, out, err, again, err2)
			}
			want, werr := evalOracle(root, tmpl)
			if out != want || (err == nil) != (werr == nil) {
				t.Errorf("eval(%q) = %q, %v; the breadth-first oracle says %q, %v", tmpl, out, err, want, werr)
			}
		}
	})
}
