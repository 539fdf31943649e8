package kubesim

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"cloudeval/internal/dataset"
	"cloudeval/internal/raceflag"
	"cloudeval/internal/yamlx"
)

const validateGolden = "testdata/validate.golden"

// referenceDocs returns every document of the corpus's distinct
// references whose kind is some row's Kind, in corpus order.
func referenceDocs(t testing.TB) []*yamlx.Node {
	t.Helper()
	seen := map[string]bool{}
	var docs []*yamlx.Node
	for _, p := range dataset.Generate() {
		if seen[p.ReferenceYAML] {
			continue
		}
		seen[p.ReferenceYAML] = true
		all, err := yamlx.ParseAll([]byte(p.ReferenceYAML))
		if err != nil {
			continue
		}
		for _, d := range all {
			kind := d.Get("kind").ScalarString()
			if r, ok := Lookup(kind); ok && r.Kind == kind {
				docs = append(docs, d)
			}
		}
	}
	if len(docs) == 0 {
		t.Fatal("no corpus reference holds a document of a row's kind")
	}
	return docs
}

// keyPaths lists the path to every mapping key in n, at any depth,
// depth first: string elements name keys, int elements index sequences.
func keyPaths(n *yamlx.Node, prefix []any, out [][]any) [][]any {
	switch n.Kind {
	case yamlx.MapKind:
		for _, e := range n.Entries {
			p := append(slices.Clip(prefix), e.Key)
			out = keyPaths(e.Value, p, append(out, p))
		}
	case yamlx.SeqKind:
		for i, it := range n.Items {
			out = keyPaths(it, append(slices.Clip(prefix), i), out)
		}
	}
	return out
}

// pathString spells a path as the API server does:
// "spec.containers[0].image".
func pathString(path []any) string {
	var b strings.Builder
	for _, e := range path {
		switch e := e.(type) {
		case string:
			if b.Len() > 0 {
				b.WriteByte('.')
			}
			b.WriteString(e)
		case int:
			b.WriteString("[" + strconv.Itoa(e) + "]")
		}
	}
	return b.String()
}

// parsePath is pathString's inverse for keys without dots or brackets.
func parsePath(s string) []any {
	var path []any
	for _, part := range strings.Split(s, ".") {
		key, rest, _ := strings.Cut(part, "[")
		path = append(path, key)
		for rest != "" {
			idx, more, _ := strings.Cut(rest, "]")
			i, _ := strconv.Atoi(idx)
			path = append(path, i)
			rest = strings.TrimPrefix(more, "[")
		}
	}
	return path
}

// valueCases are the mutations deleting a key cannot make: a value the
// validators must refuse (replicas on either side of the pod budget,
// and replicas and ports that are not integers, among them), or a field v1 dropped. Each is applied to the
// first reference document of its kind that holds the path's parent.
var valueCases = []struct{ kind, path, value string }{
	{"Pod", "spec.containers[0].ports[0].containerPort", "0"},
	{"Pod", "spec.containers[0].ports[0].containerPort", "70000"},
	{"Deployment", "spec.template.spec.containers[0].ports[0].containerPort", "0"},
	{"Deployment", "spec.template.spec.containers[0].ports[0].containerPort", "70000"},
	{"Service", "spec.ports[0].port", "0"},
	{"Service", "spec.ports[0].port", "70000"},
	{"Pod", "spec.containers[0].ports[0].containerPort", `"8080"`},
	{"Pod", "spec.containers[0].ports[0].containerPort", "true"},
	{"Service", "spec.ports[0].port", `"8080"`},
	{"Service", "spec.ports[0].port", "true"},
	{"Pod", "spec.containers[0].env[0].value", "8080"},
	{"Pod", "spec.containers[0].env[0].value", "true"},
	{"Deployment", "spec.template.spec.containers[0].env[0].value", "8080"},
	{"Deployment", "spec.template.spec.containers[0].env[0].value", "true"},
	{"Service", "spec.type", "Foo"},
	{"Ingress", "spec.rules[0].http.paths[0].backend", "{serviceName: web, servicePort: 80}"},
	{"Ingress", "spec.rules[0].http.paths[0].backend", "{serviceName: web}"},
	{"Ingress", "spec.rules[0].http.paths[0].backend", "{servicePort: 80}"},
	{"Ingress", "spec.rules[0].http.paths", "[{path: /a, pathType: Prefix, backend: {service: {name: a, port: {number: 80}}}}, {path: /b, pathType: Prefix, backend: {servicePort: 80}}]"},
	{"Deployment", "spec.template.metadata.labels", "{app: zz-other}"},
	{"DaemonSet", "spec.template.metadata.labels", "{app: zz-other}"},
	{"StatefulSet", "spec.template.metadata.labels", "{app: zz-other}"},
	{"Deployment", "spec.replicas", "-1"},
	{"Deployment", "spec.replicas", "170"},
	{"Deployment", "spec.replicas", "171"},
	{"Deployment", "spec.replicas", "1000000000"},
	{"StatefulSet", "spec.replicas", "1000000000"},
	{"Deployment", "spec.replicas", `"3"`},
	{"Deployment", "spec.replicas", "2.5"},
	{"Deployment", "spec.replicas", "9223372036854775808"},
	{"StatefulSet", "spec.replicas", `"3"`},
	{"Deployment", "spec.replicas", "null"},
	// metadata.name: a DNS-1035 label for a Service, a DNS-1123 label
	// for a Namespace, a path segment for the RBAC kinds and a DNS-1123
	// subdomain for every other kind.
	{"Service", "metadata.name", `"we*b"`},
	{"Service", "metadata.name", "web.v1"},
	{"Service", "metadata.name", "1web"},
	{"Service", "metadata.name", "web-"},
	{"Service", "metadata.name", strings.Repeat("w", 64)},
	{"Service", "metadata.name", strings.Repeat("W", 64)},
	{"Deployment", "metadata.name", "My_App"},
	{"Deployment", "metadata.name", "1web.v1"},
	{"Deployment", "metadata.name", "web..v1"},
	{"Pod", "metadata.name", "web.v1"},
	{"Pod", "metadata.name", strings.Repeat("p", 254)},
	{"Namespace", "metadata.name", "Dev"},
	{"Namespace", "metadata.name", "web.v1"},
	{"Namespace", "metadata.name", strings.Repeat("n", 64)},
	{"ClusterRole", "metadata.name", `"system:pod-reader"`},
	{"ClusterRole", "metadata.name", `"."`},
	{"ClusterRole", "metadata.name", `"a/b%c"`},
	{"Role", "metadata.name", "Pod_Reader"},
	{"RoleBinding", "metadata.name", `"read/pods"`},
	{"RoleBinding", "metadata.name", `".."`},
}

// validateRows is the golden's content: one row per distinct
// (kind, mutation, outcome), sorted.
func validateRows(t *testing.T) []string {
	docs := referenceDocs(t)
	set := map[string]bool{}
	c := NewCluster()
	record := func(doc *yamlx.Node, mutation string) {
		outcome := "ok"
		if _, err := c.ValidateManifest(doc); err != nil {
			outcome = err.Error()
		}
		set[doc.Get("kind").ScalarString()+"\t"+mutation+"\t"+outcome] = true
	}
	for _, d := range docs {
		for _, path := range keyPaths(d, nil, nil) {
			m := d.Clone()
			m.Path(path[:len(path)-1]...).Delete(path[len(path)-1].(string))
			record(m, "delete "+pathString(path))
		}
	}
	for _, c := range valueCases {
		path := parsePath(c.path)
		val, err := yamlx.ParseString(c.value)
		if err != nil {
			t.Fatalf("%s: %v", c.value, err)
		}
		i := slices.IndexFunc(docs, func(d *yamlx.Node) bool {
			return d.Get("kind").ScalarString() == c.kind && d.Path(path[:len(path)-1]...) != nil
		})
		if i < 0 {
			t.Fatalf("no %s reference holds the parent of %s", c.kind, c.path)
		}
		m := docs[i].Clone()
		parent := m.Path(path[:len(path)-1]...)
		switch last := path[len(path)-1].(type) {
		case string:
			parent.Set(last, val)
		case int:
			parent.Items[last] = val
		}
		record(m, "set "+c.path+"="+c.value)
	}
	rows := make([]string, 0, len(set))
	for r := range set {
		rows = append(rows, r)
	}
	slices.Sort(rows)
	return rows
}

// TestValidateGolden pins what ValidateManifest says about every corpus
// reference document of a row's kind with each of its mapping keys, at
// any depth, deleted in turn, and about the valueCases: one row per
// distinct "kind<TAB>mutation<TAB>ok|message". A schema entry that goes
// missing, or a message that changes, shows as the rows it moves. When
// testdata/validate.golden is missing the test records it and fails;
// delete the file to record it again, and review the diff: no row may
// move between ok and a rejection unless the change argues for it.
func TestValidateGolden(t *testing.T) {
	got := validateRows(t)
	want, err := os.ReadFile(validateGolden)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(validateGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("recorded %s (%d rows): review it and run the test again", validateGolden, len(got))
	}
	if err != nil {
		t.Fatal(err)
	}
	wantRows := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	gone, added := 0, 0
	for _, r := range wantRows {
		if _, found := slices.BinarySearch(got, r); !found {
			if gone++; gone <= 20 {
				t.Errorf("row no longer produced: %s", r)
			}
		}
	}
	for _, r := range got {
		if _, found := slices.BinarySearch(wantRows, r); !found {
			if added++; added <= 20 {
				t.Errorf("row not in %s: %s", validateGolden, r)
			}
		}
	}
	if gone+added > 0 {
		t.Errorf("%d rows gone, %d new, against %s's %d", gone, added, validateGolden, len(wantRows))
	}
}

// TestValidateReferencesAllocs: every corpus reference document of a
// row's kind is accepted, and walking it allocates nothing.
func TestValidateReferencesAllocs(t *testing.T) {
	docs := referenceDocs(t)
	c := NewCluster()
	for _, d := range docs {
		if _, err := c.ValidateManifest(d); err != nil {
			t.Errorf("reference %s %s refused: %v", d.Get("kind").ScalarString(), d.Path("metadata", "name").ScalarString(), err)
		}
	}
	if raceflag.Enabled {
		return
	}
	allocs := testing.AllocsPerRun(20, func() {
		for _, d := range docs {
			c.ValidateManifest(d)
		}
	})
	if allocs != 0 {
		t.Errorf("%.1f allocations validating the %d reference documents, want 0", allocs, len(docs))
	}
}

// FuzzValidateManifest feeds ValidateManifest every document of whatever
// text parses, seeded with the corpus's references: it never panics or
// changes the document, says the same twice, and an accepted document's
// row is the one its kind names.
func FuzzValidateManifest(f *testing.F) {
	seen := map[string]bool{}
	for _, p := range dataset.Generate() {
		if !seen[p.ReferenceYAML] {
			seen[p.ReferenceYAML] = true
			f.Add(p.ReferenceYAML)
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4<<10 {
			return // yamlx's slow-parse tail, not the validator's
		}
		docs, err := yamlx.ParseAll([]byte(src))
		if err != nil {
			return
		}
		c := NewCluster()
		for _, d := range docs {
			before := yamlx.Marshal(d)
			r, err := c.ValidateManifest(d)
			_, again := c.ValidateManifest(d)
			if fmt.Sprint(err) != fmt.Sprint(again) {
				t.Fatalf("two calls said %v and %v", err, again)
			}
			if after := yamlx.Marshal(d); !bytes.Equal(before, after) {
				t.Fatalf("document changed:\n%s\nbecame\n%s", before, after)
			}
			if err == nil && r.Kind != d.Get("kind").ScalarString() {
				t.Fatalf("accepted kind %q as row %s", d.Get("kind").ScalarString(), r.Kind)
			}
		}
	})
}
