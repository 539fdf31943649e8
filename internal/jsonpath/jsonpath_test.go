package jsonpath

import (
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
		got, err := Eval(root, c.tmpl)
		if err != nil {
			t.Errorf("Eval(%q) error: %v", c.tmpl, err)
			continue
		}
		if got != c.want {
			t.Errorf("Eval(%q) = %q, want %q", c.tmpl, got, c.want)
		}
	}
}

func TestEvalMixedTemplate(t *testing.T) {
	root := parse(t, podList)
	got, err := Eval(root, "host={.items[0].status.hostIP} phase={.items[0].status.phase}")
	if err != nil {
		t.Fatal(err)
	}
	if got != "host=10.0.0.1 phase=Running" {
		t.Errorf("got %q", got)
	}
}

func TestEvalQuotedStringStaysString(t *testing.T) {
	root := parse(t, podList)
	got, _ := Eval(root, "{.items[0].spec.containers[0].env[1].value}")
	if got != "5000" {
		t.Errorf("quoted value rendered as %q", got)
	}
}

func TestEvalErrors(t *testing.T) {
	root := parse(t, podList)
	if _, err := Eval(root, "{.items[0"); err == nil {
		t.Error("unterminated brace should error")
	}
	if _, err := Eval(root, "{.items[bad]}"); err == nil {
		t.Error("bad index should error")
	}
	if _, err := Eval(root, "{range .items[*]}x{end}"); err == nil {
		t.Error("range templates should report unsupported")
	}
}

func TestEvalBareNameAndDollar(t *testing.T) {
	root := parse(t, "metadata:\n  name: foo\n")
	for _, tmpl := range []string{"{.metadata.name}", "{$.metadata.name}", "{metadata.name}"} {
		got, err := Eval(root, tmpl)
		if err != nil || got != "foo" {
			t.Errorf("Eval(%q) = %q, %v", tmpl, got, err)
		}
	}
}

func TestEvalNonScalarRendersFlow(t *testing.T) {
	root := parse(t, "spec:\n  sel:\n    app: web\n")
	got, err := Eval(root, "{.spec.sel}")
	if err != nil {
		t.Fatal(err)
	}
	if got != "{app: web}" {
		t.Errorf("got %q", got)
	}
}

func TestEvalWildcardOnMap(t *testing.T) {
	root := parse(t, "labels:\n  a: x\n  b: y\n")
	got, _ := Eval(root, "{.labels[*]}")
	if got != "x y" {
		t.Errorf("got %q", got)
	}
}

// jsonpathFlag matches the template of a "-o jsonpath=…" flag in a
// unit-test script, quoted or bare.
var jsonpathFlag = regexp.MustCompile(`jsonpath=('[^']*'|"[^"]*"|\S+)`)

// FuzzEval: a template is script text, and a script is whatever the
// corpus — or a caller of POST /v1/eval — says it is. Eval must return
// for any template, without a panic, the same result each time it is
// asked (compiled steps are cached by expression). Seeded with every
// template the corpus uses and with the syntax this subset leaves out:
// filters, slices, unions, range/end.
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
	root, err := yamlx.ParseString(podList)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, tmpl string) {
		out, err := Eval(root, tmpl)
		again, err2 := Eval(root, tmpl)
		if out != again || (err == nil) != (err2 == nil) {
			t.Errorf("Eval(%q) = %q, %v the first time and %q, %v the second", tmpl, out, err, again, err2)
		}
	})
}
