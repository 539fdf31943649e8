package kubesim

import (
	"strings"
	"testing"
	"unicode"

	"cloudeval/internal/raceflag"
	"cloudeval/internal/yamlx"
)

// mustSelector parses a selector the test itself wrote.
func mustSelector(s string) Selector {
	sel, err := AppendSelector(nil, s)
	if err != nil {
		panic(err)
	}
	return sel
}

func mustResource(spelling string) *Resource {
	r, ok := Lookup(spelling)
	if !ok {
		panic("no resource " + spelling)
	}
	return r
}

const selectorPods = `apiVersion: v1
kind: Pod
metadata:
  name: web-prod
  labels: {app: web, tier: frontend, env: prod}
spec:
  containers: [{name: c, image: nginx}]
---
apiVersion: v1
kind: Pod
metadata:
  name: web-dev
  labels: {app: web, env: dev}
spec:
  containers: [{name: c, image: nginx}]
---
apiVersion: v1
kind: Pod
metadata:
  name: db
  labels: {app: db, env: ""}
spec:
  containers: [{name: c, image: postgres}]
---
apiVersion: v1
kind: Pod
metadata:
  name: bare
spec:
  containers: [{name: c, image: busybox}]
`

// TestSelectorGrammar runs each key=value form against labeled and
// unlabeled pods. Before there was a parser, "app==web" matched nothing.
func TestSelectorGrammar(t *testing.T) {
	c := NewCluster()
	if _, err := c.ApplyYAML(nil, selectorPods, "default"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ selector, want string }{
		{"", "bare db web-dev web-prod"},
		{"  ", "bare db web-dev web-prod"},
		{"app=web", "web-dev web-prod"},
		{"app==web", "web-dev web-prod"},
		{" app = web ", "web-dev web-prod"},
		{"app=web,env=prod", "web-prod"},
		{"app=web,app=db", ""},
		{"env=", "db"},
		{"env==", "db"},
		{"env=,app=db", "db"},
		{`app="web"`, "web-dev web-prod"},
		{"app='db'", "db"},
		{"in=web", ""},
		{"app=nothing", ""},
	} {
		sel, err := AppendSelector(nil, tc.selector)
		if err != nil {
			t.Errorf("AppendSelector(nil, %q): %v", tc.selector, err)
			continue
		}
		var names []string
		for _, o := range c.ListObjects(nil, Pod, "default", sel) {
			names = append(names, o.Name)
		}
		if got := strings.Join(names, " "); got != tc.want {
			t.Errorf("-l %q selects %q, want %q", tc.selector, got, tc.want)
		}
	}
}

// TestSelectorCutFormsRefused: kubectl's selector forms that no corpus
// script writes (key!=value, in, notin, key and !key) are refused by
// name, alone or in a list, and never select anything.
func TestSelectorCutFormsRefused(t *testing.T) {
	for _, tc := range []struct{ selector, form string }{
		{"app!=web", "key!=value"},
		{"env!=", "key!=value"},
		{"app=web,env!=prod", "key!=value"},
		{"app!==web", "key!=value"},
		{"app in (web)", "key in (…)"},
		{"app in (web,db)", "key in (…)"},
		{"app in", "key in (…)"},
		{"app notin (web)", "key notin (…)"},
		{"app", "key"},
		{"notin", "key"},
		{"app=web,tier", "key"},
		{"!app", "!key"},
		{"! app", "!key"},
		{"!app=web", "!key"},
		{"!", "!key"},
	} {
		sel, err := AppendSelector(nil, tc.selector)
		want := "selector form \"" + tc.form + "\" is not supported: use key=value"
		if err == nil || err.Error() != want || sel != nil {
			t.Errorf("AppendSelector(nil, %q) = %+v, %v; want the error %q", tc.selector, sel, err, want)
		}
	}
}

// TestSelectorParseErrors: what kubectl rejects is an error here too,
// never a selector that matches everything.
func TestSelectorParseErrors(t *testing.T) {
	for _, s := range []string{
		",", "app=web,", ",app=web", "app=web,,tier=x", "=web", "==", "!=web", "!=",
		"app=web tier=x", "app=a=b", "app===web", "(app)", "app)",
		"app>1", "app<1", "app > 1", "a b", "app=(web)",
	} {
		sel, err := AppendSelector(nil, s)
		if err == nil {
			t.Errorf("AppendSelector(nil, %q) = %+v, want an error", s, sel)
			continue
		}
		if !strings.HasPrefix(err.Error(), "unable to parse requirement: found '") {
			t.Errorf("AppendSelector(nil, %q): error %q is not worded as kubectl's", s, err)
		}
	}
}

// The selector parser this package had before Selector, kept as the
// oracle for what it did get right: comma lists of key=value.
func parseSelectorOld(s string) map[string]string {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	sel := make(map[string]string)
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) == 2 {
			sel[kv[0]] = strings.Trim(kv[1], "\"'")
		}
	}
	return sel
}

func matchesSelectorOld(manifest *yamlx.Node, sel map[string]string) bool {
	if len(sel) == 0 {
		return true
	}
	labels := manifest.Path("metadata", "labels")
	for k, v := range sel {
		lv := labels.Get(k)
		if lv == nil || lv.ScalarString() != v {
			return false
		}
	}
	return true
}

// equalityList reports whether s is a comma list of key=value terms
// with distinct keys, the inputs on which the old parser's answer was
// kubectl's. (On a repeated key it kept the last value where kubectl
// requires both; everything outside this shape it dropped or misread.)
func equalityList(s string) bool {
	seen := map[string]bool{}
	for _, part := range strings.Split(s, ",") {
		key, value, ok := strings.Cut(strings.Trim(part, " \t\r\n"), "=")
		word := func(w string) bool {
			return !strings.ContainsAny(w, ",()!=<>") && !strings.ContainsFunc(w, unicode.IsSpace)
		}
		if !ok || key == "" || !word(key) || !word(value) || seen[key] {
			return false
		}
		seen[key] = true
	}
	return true
}

func manifestWithLabels(labels map[string]string) *yamlx.Node {
	l := yamlx.Map()
	for k, v := range labels {
		l.Set(k, yamlx.String(v))
	}
	meta := yamlx.Map()
	meta.Set("name", yamlx.String("p"))
	if labels != nil {
		meta.Set("labels", l)
	}
	doc := yamlx.Map()
	doc.Set("metadata", meta)
	return doc
}

// FuzzParseSelector: a selector is script text, and through $(...)
// whatever a model's answer made the cluster print. Parsing it never
// panics; and where the input is a comma list of key=value the new
// matcher decides every object as the old map-based one did — on the
// labels the selector asks for, and on each way of missing them by one.
func FuzzParseSelector(f *testing.F) {
	for _, s := range []string{
		"", "app=web", "app=web,tier=frontend", " app=web , env=prod ", "run=nginx", "daemon=fluentd",
		"app==web", "app!=web", "app", "!app", "app in (a,b)", "app notin (a)", "env=", `app="web"`,
		"a=b=c", "app in (", ",", "k8s.io/name=x-1_y.z", "app=web,app=db", "app in (a,b),!c,d!=e",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sel, err := AppendSelector(nil, s)
		if err != nil {
			if sel != nil {
				t.Fatalf("AppendSelector(nil, %q) returned both %+v and %v", s, sel, err)
			}
			if equalityList(s) {
				t.Fatalf("AppendSelector(nil, %q): %v, on a key=value list", s, err)
			}
			return
		}
		sel.matches(manifestWithLabels(nil).Path("metadata", "labels")) // any selector can be asked
		if !equalityList(s) {
			return
		}
		old := parseSelectorOld(s)
		cases := []map[string]string{nil, {}, old}
		for k, v := range old {
			without, other, extra := map[string]string{}, map[string]string{}, map[string]string{"zz-extra": "1"}
			for k2, v2 := range old {
				if k2 != k {
					without[k2] = v2
				}
				other[k2], extra[k2] = v2, v2
			}
			other[k] = v + "x"
			cases = append(cases, without, other, extra)
		}
		for _, labels := range cases {
			m := manifestWithLabels(labels)
			if got, want := sel.matches(m.Path("metadata", "labels")), matchesSelectorOld(m, old); got != want {
				t.Fatalf("-l %q on labels %v: matches = %v, the old parser said %v", s, labels, got, want)
			}
		}
	})
}

// TestAppendSelectorReusesStorage: parsed into the storage of the last
// selector, a key=value list allocates nothing, and the selector parsed
// there selects what it would on its own, whatever was parsed there
// before.
func TestAppendSelectorReusesStorage(t *testing.T) {
	c := NewCluster()
	if _, err := c.ApplyYAML(nil, selectorPods, "default"); err != nil {
		t.Fatal(err)
	}
	names := func(sel Selector) string {
		var out []string
		for _, o := range c.ListObjects(nil, Pod, "default", sel) {
			out = append(out, o.Name)
		}
		return strings.Join(out, " ")
	}
	var buf Selector
	for _, tc := range []struct{ selector, want string }{
		{"app=web,env=prod,tier=frontend", "web-prod"},
		{"app=db", "db"},
		{"", "bare db web-dev web-prod"},
		{"env", "error"},
		{"app=web,", "error"},
		{"env=dev,app=web", "web-dev"},
		{"app=web", "web-dev web-prod"},
	} {
		sel, err := AppendSelector(buf[:0], tc.selector)
		got := "error"
		if err == nil {
			got, buf = names(sel), sel
		}
		if got != tc.want {
			t.Errorf("%q into reused storage: %q, want %q", tc.selector, got, tc.want)
		}
	}
	if raceflag.Enabled {
		return
	}
	if allocs := testing.AllocsPerRun(100, func() { buf, _ = AppendSelector(buf[:0], "app=web,env=prod") }); allocs != 0 {
		t.Errorf("a key=value list parsed into reused storage allocates %.1f times, want 0", allocs)
	}
}
