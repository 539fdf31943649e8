package yamlx

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

const sampleDeployment = `apiVersion: apps/v1
kind: Deployment
metadata:
  name: nginx-deployment
spec:
  replicas: 3
  selector:
    matchLabels:
      app: nginx
  template:
    metadata:
      labels:
        app: nginx
    spec:
      containers:
      - name: nginx-container
        image: nginx:latest
        ports:
        - containerPort: 80
`

func mustParse(t *testing.T, src string) *Node {
	t.Helper()
	n, err := ParseString(src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	return n
}

func TestParseDeployment(t *testing.T) {
	n := mustParse(t, sampleDeployment)
	if got := n.Get("kind").ScalarString(); got != "Deployment" {
		t.Errorf("kind = %q, want Deployment", got)
	}
	if got := n.Path("spec", "replicas"); got == nil || got.Kind != IntKind || got.Int != 3 {
		t.Errorf("spec.replicas = %v, want int 3", got)
	}
	img := n.Path("spec", "template", "spec", "containers", 0, "image")
	if img == nil || img.Str != "nginx:latest" {
		t.Errorf("image = %v, want nginx:latest", img)
	}
	port := n.Path("spec", "template", "spec", "containers", 0, "ports", 0, "containerPort")
	if port == nil || port.Int != 80 {
		t.Errorf("containerPort = %v, want 80", port)
	}
}

func TestParseScalarTypes(t *testing.T) {
	n := mustParse(t, `
int: 42
neg: -7
float: 3.5
boolT: true
boolF: False
nil1: null
nil2: ~
str: hello world
quotedNum: "5000"
single: 'it''s'
colonStr: nginx:latest
version: 22.04.1
cpu: 100m
mem: 50Mi
empty:
`)
	cases := []struct {
		key  string
		kind Kind
		want string
	}{
		{"int", IntKind, "42"},
		{"neg", IntKind, "-7"},
		{"float", FloatKind, "3.5"},
		{"boolT", BoolKind, "true"},
		{"boolF", BoolKind, "false"},
		{"nil1", NullKind, ""},
		{"nil2", NullKind, ""},
		{"str", StringKind, "hello world"},
		{"quotedNum", StringKind, "5000"},
		{"single", StringKind, "it's"},
		{"colonStr", StringKind, "nginx:latest"},
		{"version", StringKind, "22.04.1"},
		{"cpu", StringKind, "100m"},
		{"mem", StringKind, "50Mi"},
		{"empty", NullKind, ""},
	}
	for _, c := range cases {
		v := n.Get(c.key)
		if v == nil {
			t.Errorf("%s: missing", c.key)
			continue
		}
		if v.Kind != c.kind {
			t.Errorf("%s: kind = %v, want %v", c.key, v.Kind, c.kind)
		}
		if got := v.ScalarString(); got != c.want {
			t.Errorf("%s: value = %q, want %q", c.key, got, c.want)
		}
	}
	if !n.Get("quotedNum").Quoted {
		t.Error("quotedNum should record Quoted")
	}
}

// TestKindString: the names the messages above print kinds by.
func TestKindString(t *testing.T) {
	var got []string
	for k := NullKind; k <= SeqKind+1; k++ {
		got = append(got, k.String())
	}
	if want := "null bool int float string map seq kind(7)"; strings.Join(got, " ") != want {
		t.Errorf("kind names = %q, want %q", got, want)
	}
}

func TestParseComments(t *testing.T) {
	src := `metadata:
  name: kube-registry-proxy # *
  image: nginx:latest
  tag: ubuntu:22.04 # v in ['20.04', '22.04']
`
	n := mustParse(t, src)
	if got := n.Path("metadata", "name").Comment; got != "*" {
		t.Errorf("name comment = %q, want *", got)
	}
	if got := n.Path("metadata", "image").Comment; got != "" {
		t.Errorf("image comment = %q, want empty", got)
	}
	if got := n.Path("metadata", "tag").Comment; got != "v in ['20.04', '22.04']" {
		t.Errorf("tag comment = %q", got)
	}
}

func TestHashInsideQuotesIsNotComment(t *testing.T) {
	n := mustParse(t, `password: "p#ss" # secret`)
	v := n.Get("password")
	if v.Str != "p#ss" {
		t.Errorf("value = %q, want p#ss", v.Str)
	}
	if v.Comment != "secret" {
		t.Errorf("comment = %q, want secret", v.Comment)
	}
}

// TestEscapesInsideDoubleQuotes: the key and comment scanners close a
// double quote at its closing quote, not at an escaped one. The first
// three inputs are ordinary container args the scanners used to misread
// (a string taken for a mapping, a value cut at "#", a quoted key taken
// for a plain scalar); the last two were always read right and must
// stay so — single quotes have no escapes, and an escaped backslash
// does not escape the quote after it. The flow rendering stands for
// the whole tree.
func TestEscapesInsideDoubleQuotes(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{"args:\n- \"echo \\\"hello: world\\\"\"", `{args: ["echo \"hello: world\""]}`},
		{`x: "a \" # b"`, `{x: "a \" # b"}`},
		{`"k\"x": v`, `{"k\\\"x": v}`}, // keys are unquoted, not unescaped
		{`'it''s: x'`, `"it's: x"`},
		{`- "a\\": b`, `[{a\\: b}]`},
	} {
		n, err := ParseString(c.src)
		if err != nil {
			t.Errorf("%q: %v", c.src, err)
			continue
		}
		if got := string(MarshalFlow(n)); got != c.want {
			t.Errorf("%q parsed as %s, want %s", c.src, got, c.want)
		}
	}
	n := mustParse(t, "args:\n- \"echo \\\"hello: world\\\"\"")
	if item := n.Path("args", 0); item == nil || item.Kind != StringKind || item.Str != `echo "hello: world"` {
		t.Errorf("args[0] = %+v, want the string %q", item, `echo "hello: world"`)
	}
}

func TestParseSequences(t *testing.T) {
	n := mustParse(t, `
plain:
- a
- b
indented:
  - 1
  - 2
nested:
- - x
  - y
- - z
flow: [10, 20, 30]
flowMap: {a: 1, b: two}
objs:
- name: first
  value: 1
- name: second
  value: 2
`)
	if got := n.Get("plain").Len(); got != 2 {
		t.Errorf("plain len = %d, want 2", got)
	}
	if got := n.Path("indented", 1); got.Int != 2 {
		t.Errorf("indented[1] = %v", got)
	}
	if got := n.Path("nested", 0, 1); got == nil || got.Str != "y" {
		t.Errorf("nested[0][1] = %v, want y", got)
	}
	if got := n.Path("nested", 1, 0); got == nil || got.Str != "z" {
		t.Errorf("nested[1][0] = %v, want z", got)
	}
	if got := n.Path("flow", 2); got.Int != 30 {
		t.Errorf("flow[2] = %v", got)
	}
	if got := n.Path("flowMap", "b"); got.Str != "two" {
		t.Errorf("flowMap.b = %v", got)
	}
	if got := n.Path("objs", 1, "name"); got.Str != "second" {
		t.Errorf("objs[1].name = %v", got)
	}
}

func TestParseMultiDoc(t *testing.T) {
	docs, err := ParseAll([]byte(`apiVersion: v1
kind: Service
---
apiVersion: apps/v1
kind: Deployment
---
`))
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 2 {
		t.Fatalf("got %d docs, want 2", len(docs))
	}
	if docs[0].Get("kind").Str != "Service" || docs[1].Get("kind").Str != "Deployment" {
		t.Errorf("kinds = %v, %v", docs[0].Get("kind"), docs[1].Get("kind"))
	}
}

func TestParseLeadingDocMarker(t *testing.T) {
	docs, err := ParseAll([]byte("---\nkind: Pod\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 1 || docs[0].Get("kind").Str != "Pod" {
		t.Fatalf("docs = %v", docs)
	}
}

func TestParseBlockScalars(t *testing.T) {
	n := mustParse(t, `
literal: |
  line one
  line two
folded: >
  word one
  word two
stripped: |-
  no trailing
`)
	if got := n.Get("literal").Str; got != "line one\nline two\n" {
		t.Errorf("literal = %q", got)
	}
	if got := n.Get("folded").Str; got != "word one word two\n" {
		t.Errorf("folded = %q", got)
	}
	if got := n.Get("stripped").Str; got != "no trailing" {
		t.Errorf("stripped = %q", got)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"a: 1\n  b: 2\n   c: 3\n  d: [unclosed\n",
		"key: [1, 2\n",
		"key: {a: 1\n",
		"a: 1\na: 2\n", // duplicate key
	}
	for _, src := range bad {
		if _, err := ParseString(src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

func TestParseEmpty(t *testing.T) {
	n, err := ParseString("")
	if err != nil {
		t.Fatal(err)
	}
	if n.Kind != NullKind {
		t.Errorf("empty doc kind = %v", n.Kind)
	}
	n2, err := ParseString("# only a comment\n\n")
	if err != nil {
		t.Fatal(err)
	}
	if n2.Kind != NullKind {
		t.Errorf("comment-only doc kind = %v", n2.Kind)
	}
}

func TestRoundTripDeployment(t *testing.T) {
	n := mustParse(t, sampleDeployment)
	out := MarshalString(n)
	n2, err := ParseString(out)
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, out)
	}
	if !Equal(n, n2) {
		t.Errorf("round trip not equal:\n--- original ---\n%s\n--- emitted ---\n%s", sampleDeployment, out)
	}
}

func TestRoundTripPreservesComments(t *testing.T) {
	src := "metadata:\n  name: foo # *\n"
	n := mustParse(t, src)
	out := MarshalString(n)
	n2 := mustParse(t, out)
	if got := n2.Path("metadata", "name").Comment; got != "*" {
		t.Errorf("comment lost on round trip: %q in\n%s", got, out)
	}
}

func TestRoundTripQuotedNumberString(t *testing.T) {
	n := mustParse(t, `value: "5000"`)
	out := MarshalString(n)
	n2 := mustParse(t, out)
	v := n2.Get("value")
	if v.Kind != StringKind || v.Str != "5000" {
		t.Errorf("quoted number string became %v (%v) in %q", v.Kind, v.ScalarString(), out)
	}
}

// TestRoundTripLiteralPlacement: a multi-line string keeps its place
// whether its key stands alone, follows the "- " of a sequence item (the
// dash was once overwritten with padding, and the next item then failed
// to parse) or sits further down the item.
func TestRoundTripLiteralPlacement(t *testing.T) {
	for _, tc := range []struct{ name, src string }{
		{"first key of an item", "items:\n- script: |\n    echo a\n    echo b\n  name: x\n- name: y\n"},
		{"first key of a nested item", "jobs:\n- steps:\n  - run: |\n      echo a\n\n      echo b\n    name: x\n  - name: y\n  name: outer\n"},
		{"later key of an item", "items:\n- name: x\n  script: |-\n    echo a\n    echo b\n- name: y\n"},
		{"plain mapping", "data:\n  script: |\n    echo a\n    echo b\nkind: ConfigMap\n"},
	} {
		n := mustParse(t, tc.src)
		out := MarshalString(n)
		n2, err := ParseString(out)
		if err != nil {
			t.Errorf("%s: marshalled form does not parse: %v\n%s", tc.name, err, out)
			continue
		}
		if !Equal(n, n2) {
			t.Errorf("%s: changed across Marshal → Parse\nwas %s\nis  %s\n%s", tc.name, MarshalFlow(n), MarshalFlow(n2), out)
		}
	}
}

func TestEqualSemantics(t *testing.T) {
	a := mustParse(t, "x: 1\ny: 2\n")
	b := mustParse(t, "y: 2\nx: 1\n")
	if !Equal(a, b) {
		t.Error("map order should not affect equality")
	}
	c := mustParse(t, "l:\n- 1\n- 2\n")
	d := mustParse(t, "l:\n- 2\n- 1\n")
	if Equal(c, d) {
		t.Error("sequence order should affect equality")
	}
	e := mustParse(t, `p: "80"`)
	f := mustParse(t, `p: 80`)
	if !Equal(e, f) {
		t.Error("scalar equality compares canonical text")
	}
}

func TestNodeHelpers(t *testing.T) {
	m := Map().Set("a", Integer(1)).Set("b", String("x"))
	if !m.Has("a") || m.Has("z") {
		t.Error("Has misbehaves")
	}
	if len(m.Entries) != 2 || m.Entries[0].Key != "a" || m.Entries[1].Key != "b" {
		t.Errorf("entries = %v", m.Entries)
	}
	if !m.Delete("a") || m.Delete("a") {
		t.Error("Delete misbehaves")
	}
	s := Seq(Integer(1)).Append(Integer(2))
	if s.Len() != 2 {
		t.Errorf("seq len = %d", s.Len())
	}
	if v, ok := String("17").AsInt(); !ok || v != 17 {
		t.Errorf("AsInt(string) = %v %v", v, ok)
	}
	if v, ok := Number(4.0).AsInt(); !ok || v != 4 {
		t.Errorf("AsInt(float) = %v %v", v, ok)
	}
	if _, ok := Number(4.5).AsInt(); ok {
		t.Error("AsInt(4.5) should fail")
	}
}

func TestCloneIsDeep(t *testing.T) {
	n := mustParse(t, sampleDeployment)
	c := n.Clone()
	c.Path("spec").Set("replicas", Integer(99))
	if n.Path("spec", "replicas").Int != 3 {
		t.Error("Clone is not deep")
	}
	if !Equal(n, mustParse(t, sampleDeployment)) {
		t.Error("original mutated")
	}
}

// randomNode builds an arbitrary node for property testing.
func randomNode(r *rand.Rand, depth int) *Node {
	if depth <= 0 {
		return randomScalar(r)
	}
	switch r.Intn(4) {
	case 0:
		return randomScalar(r)
	case 1:
		m := Map()
		for i := 0; i < 1+r.Intn(4); i++ {
			m.Set(randomKey(r, i), randomNode(r, depth-1))
		}
		return m
	case 2:
		s := Seq()
		for i := 0; i < 1+r.Intn(4); i++ {
			s.Append(randomNode(r, depth-1))
		}
		return s
	default:
		m := Map()
		m.Set("name", randomScalar(r))
		m.Set("spec", randomNode(r, depth-1))
		return m
	}
}

func randomKey(r *rand.Rand, i int) string {
	words := []string{"name", "image", "spec", "replicas", "app", "port", "env", "labels", "metadata", "kind"}
	return words[r.Intn(len(words))] + string(rune('a'+i))
}

func randomScalar(r *rand.Rand) *Node {
	switch r.Intn(6) {
	case 0:
		return Integer(int64(r.Intn(10000) - 5000))
	case 1:
		return Boolean(r.Intn(2) == 0)
	case 2:
		return Null()
	case 3:
		return Number(float64(r.Intn(1000)) / 8.0)
	case 4:
		strs := []string{"nginx:latest", "hello world", "100m", "50Mi", "a:b:c", "v1.2.3", "true story", "8080", "", "it's"}
		return String(strs[r.Intn(len(strs))])
	default:
		return String("value-" + string(rune('a'+r.Intn(26))))
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 300,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(randomNode(r, 4))
		},
	}
	prop := func(n *Node) bool {
		out := Marshal(n)
		n2, err := Parse(out)
		if err != nil {
			t.Logf("parse error: %v\n%s", err, out)
			return false
		}
		if !Equal(n, n2) {
			t.Logf("not equal after round trip:\n%s\nvs\n%s", out, Marshal(n2))
			return false
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestPropertyMarshalIdempotent(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(randomNode(r, 3))
		},
	}
	prop := func(n *Node) bool {
		once := MarshalString(n)
		n2, err := ParseString(once)
		if err != nil {
			return false
		}
		twice := MarshalString(n2)
		return once == twice
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestMarshalFlowStyle(t *testing.T) {
	n := Map().Set("a", Seq(Integer(1), Integer(2))).Set("b", Map().Set("c", String("d")))
	got := string(MarshalFlow(n))
	if got != "{a: [1, 2], b: {c: d}}" {
		t.Errorf("flow = %q", got)
	}
}

func TestWindowsLineEndings(t *testing.T) {
	n := mustParse(t, "kind: Pod\r\nmetadata:\r\n  name: x\r\n")
	if n.Get("kind").Str != "Pod" || n.Path("metadata", "name").Str != "x" {
		t.Errorf("CRLF parse failed: %v", MarshalString(n))
	}
}

func TestTabsAreTolerated(t *testing.T) {
	n := mustParse(t, "a:\n\tb: 1\n")
	if n.Path("a", "b") == nil {
		t.Error("tab-indented mapping should parse")
	}
}

func TestDeepNesting(t *testing.T) {
	var sb strings.Builder
	depth := 40
	for i := 0; i < depth; i++ {
		sb.WriteString(strings.Repeat("  ", i) + "k" + string(rune('a'+i%26)) + ":\n")
	}
	sb.WriteString(strings.Repeat("  ", depth) + "leaf: 1\n")
	n := mustParse(t, sb.String())
	cur := n
	for i := 0; i < depth; i++ {
		cur = cur.Entries[0].Value
		if cur == nil {
			t.Fatalf("lost nesting at %d", i)
		}
	}
	if cur.Get("leaf").Int != 1 {
		t.Error("deep leaf wrong")
	}
}
