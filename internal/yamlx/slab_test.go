package yamlx

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"cloudeval/internal/raceflag"
)

// slabDoc has sibling mappings and sequences of every length the slabs
// lay next to each other, and two documents.
const slabDoc = `a: {x: 1, y: 2}
b: {z: 3}
c: [1, 2]
d: [3]
e:
  - f: 4
    g: 5
  - h: 6
  - [7, 8]
  - []
  - {}
---
- i
- j: [9]
  k: {l: 10}
`

// preorder lists every node under docs, parents first.
func preorder(docs []*Node) []*Node {
	var out []*Node
	var walk func(*Node)
	walk = func(n *Node) {
		out = append(out, n)
		for _, e := range n.Entries {
			walk(e.Value)
		}
		for _, it := range n.Items {
			walk(it)
		}
	}
	for _, d := range docs {
		walk(d)
	}
	return out
}

// reshape changes the shape of n as a caller that owns it may: an
// append, a new key, a replaced key, a deleted key.
var reshapes = []struct {
	name string
	do   func(n *Node, mk func(string) *Node)
}{
	{"Append", func(n *Node, mk func(string) *Node) {
		if n.Kind == SeqKind {
			n.Append(mk("appended"))
		}
	}},
	{"append", func(n *Node, mk func(string) *Node) {
		if n.Kind == SeqKind {
			n.Items = append(n.Items, mk("appended"), mk("again"))
		}
	}},
	{"Set new", func(n *Node, mk func(string) *Node) {
		if n.Kind == MapKind {
			n.Set("new", mk("set")).Set("newer", mk("set"))
		}
	}},
	{"Set old", func(n *Node, mk func(string) *Node) {
		if n.Kind == MapKind && len(n.Entries) > 0 {
			n.Set(n.Entries[0].Key, mk("replaced"))
		}
	}},
	{"Delete", func(n *Node, mk func(string) *Node) {
		if n.Kind == MapKind && len(n.Entries) > 0 {
			n.Delete(n.Entries[0].Key)
			n.Set("after-delete", mk("set"))
		}
	}},
}

// TestParsedNodesShareNoSlack: a parse's Entries and Items are slices of
// three slabs, each capped, so reshaping one parsed node changes no
// other. A parsed stream reshaped at any node marshals as its deep
// Clone reshaped at the same node; a ShallowClone of a cached node, on
// the heap or in an arena, reshaped, leaves the cached stream as it was;
// and appending to the documents' list leaves the first sequence alone.
func TestParsedNodesShareNoSlack(t *testing.T) {
	mk := String
	for i := range preorder(mustParseAll(t, slabDoc)) {
		for _, r := range reshapes {
			docs := mustParseAll(t, slabDoc)
			clone := make([]*Node, len(docs))
			for j, d := range docs {
				clone[j] = d.Clone()
			}
			r.do(preorder(docs)[i], mk)
			r.do(preorder(clone)[i], mk)
			if got, want := string(MarshalAll(docs)), string(MarshalAll(clone)); got != want {
				t.Errorf("%s on parsed node %d:\n%s\nwant, as on a deep clone:\n%s", r.name, i, got, want)
			}
		}
	}

	cached, err := ParseAllCached(slabDoc)
	if err != nil {
		t.Fatal(err)
	}
	want := string(MarshalAll(cached))
	var a Arena
	for i, n := range preorder(cached) {
		for _, r := range reshapes {
			r.do(n.ShallowClone(), mk)
			r.do(a.ShallowClone(n), a.String)
			if got := string(MarshalAll(cached)); got != want {
				t.Fatalf("%s on a ShallowClone of cached node %d changed the cached stream:\n%s", r.name, i, got)
			}
		}
	}

	docs := mustParseAll(t, slabDoc)
	before := string(MarshalAll(docs))
	_ = append(docs, String("a third document"))
	if got := string(MarshalAll(docs)); got != before {
		t.Errorf("appending to the documents' list changed them:\n%s", got)
	}
}

func mustParseAll(t *testing.T, src string) []*Node {
	t.Helper()
	docs, err := ParseAll([]byte(src))
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	return docs
}

// TestParseAllCachedMissAllocs: a cache miss on a manifest with no block
// scalar and no escaped quote is its three slabs, whatever its shape.
func TestParseAllCachedMissAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops what is put back under the race detector")
	}
	EmptyCache(t)
	const runs = 200
	texts := make([]string, runs+1)
	for i := range texts {
		texts[i] = strings.Replace(cachedDoc, "name: web", fmt.Sprintf("name: web-%d", i), 1)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := ParseAllCached(texts[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if st := docCache.Stats(); st.Misses != runs+1 {
		t.Fatalf("%d runs made %d misses", runs+1, st.Misses)
	}
	if allocs > 3 {
		t.Errorf("a document-cache miss allocates %.0f times, want at most 3", allocs)
	}
}

// TestBuilderKeepsNoLargeScratch: after a 1 MiB text, the builder a
// parse returns to the pool keeps no slice, chunk or key index larger
// than ChunkCap.
func TestBuilderKeepsNoLargeScratch(t *testing.T) {
	for _, src := range []string{largeMapping(false), largeMapping(true), strings.Repeat("- [a, b]\n", 1<<20/9)} {
		var b builder
		if _, err := b.parse(src); err != nil {
			t.Fatal(err)
		}
		b.release()
		_, arena := b.a.Held()
		for what, n := range map[string]int{
			"lines": cap(b.lines), "entries": cap(b.ents), "items": cap(b.items), "body": cap(b.body),
			"keys": len(b.keys), "arena nodes": arena[0], "arena entries": arena[1], "arena items": arena[2],
		} {
			if n > ChunkCap {
				t.Errorf("after a %d-byte text the builder keeps %d %s, over ChunkCap", len(src), n, what)
			}
		}
		if b.keys != nil {
			t.Errorf("after a %d-byte text the builder keeps its key index", len(src))
		}
	}
}

// largeMapping is a 1 MiB answer of one mapping with distinct keys, in
// block or flow form.
func largeMapping(flow bool) string {
	var sb strings.Builder
	if flow {
		sb.WriteString("{")
	}
	for i := 0; sb.Len() < 1<<20-32; i++ {
		if flow {
			fmt.Fprintf(&sb, "key-%06d: value, ", i)
		} else {
			fmt.Fprintf(&sb, "key-%06d: value\n", i)
		}
	}
	if flow {
		sb.WriteString("last: value}\n")
	}
	return sb.String()
}

// TestLargeMappingParsesInLinearTime: a duplicate key is found in
// constant time however many keys a mapping has, so a 1 MiB mapping —
// /v1/eval's largest body — parses well under the cap (a scan of every
// earlier key took 8.4 s at 40,000 keys), and the duplicate rules hold
// on both sides of indexAt: a block mapping refuses a repeated key at
// its line, and a flow mapping keeps the key's first place with its
// last value.
func TestLargeMappingParsesInLinearTime(t *testing.T) {
	for _, flow := range []bool{false, true} {
		src := largeMapping(flow)
		start := time.Now()
		docs, err := ParseAll([]byte(src))
		elapsed := time.Since(start)
		if err != nil {
			t.Fatalf("flow %v: %v", flow, err)
		}
		n := len(docs[0].Entries)
		t.Logf("flow %v: %d keys in %v", flow, n, elapsed)
		if n < 50000 {
			t.Errorf("flow %v: %d keys, want a mapping of at least 50,000", flow, n)
		}
		if limit := 3 * time.Second; elapsed > limit {
			t.Errorf("flow %v: a %d-key mapping took %v to parse, over %v", flow, n, elapsed, limit)
		}
	}
	for _, keys := range []int{2, indexAt - 1, indexAt, indexAt + 1, 5 * indexAt} {
		var block, flow strings.Builder
		flow.WriteString("{")
		for i := 0; i < keys; i++ {
			fmt.Fprintf(&block, "k%d: %d\n", i, i)
			fmt.Fprintf(&flow, "k%d: %d, ", i, i)
		}
		fmt.Fprintf(&block, "k%d: again\n", keys/2)
		fmt.Fprintf(&flow, "k%d: again}", keys/2)
		_, err := ParseString(block.String())
		if want := fmt.Sprintf("yaml: line %d: duplicate mapping key \"k%d\"", keys+1, keys/2); err == nil || err.Error() != want {
			t.Errorf("%d keys and a repeat in block form: %v, want %q", keys, err, want)
		}
		n, err := ParseString(flow.String())
		if err != nil {
			t.Fatalf("%d keys and a repeat in flow form: %v", keys, err)
		}
		if len(n.Entries) != keys || n.Entries[keys/2].Key != fmt.Sprintf("k%d", keys/2) || n.Entries[keys/2].Value.Str != "again" {
			t.Errorf("%d keys and a repeat in flow form: %s", keys, MarshalFlow(n))
		}
	}
}
