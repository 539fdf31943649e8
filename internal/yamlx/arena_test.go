package yamlx_test

import (
	"slices"
	"strings"
	"testing"
	"unsafe"

	"cloudeval/internal/yamlx"
)

// TestChunksRewind: what Take hands out is zeroed, even from a rewound
// chunk; appending to it never reaches the next Take's elements; chunks
// stop growing at ChunkCap; and Rewind keeps a chunk of at most
// ChunkCap, dropping one a single large Take made.
func TestChunksRewind(t *testing.T) {
	var c yamlx.Chunks[int]
	for i := 0; i < 3*yamlx.ChunkCap; i++ {
		s := c.Take(1)
		if s[0] != 0 {
			t.Fatalf("Take %d: got %d, want a zeroed element", i, s[0])
		}
		s[0] = i + 1
	}
	if _, n := c.Held(); n != yamlx.ChunkCap {
		t.Errorf("after %d Takes the chunk holds %d, want the cap %d", 3*yamlx.ChunkCap, n, yamlx.ChunkCap)
	}
	c.Rewind()
	a := c.Take(2)
	b := c.Take(1)
	if a[0] != 0 || a[1] != 0 || b[0] != 0 {
		t.Errorf("a rewound chunk hands out %v and %v, want zeros", a, b)
	}
	_ = append(a, 7)
	if b[0] != 0 {
		t.Errorf("appending to one Take wrote the next: %v", b)
	}
	if big := c.Take(yamlx.ChunkCap + 1); len(big) != yamlx.ChunkCap+1 {
		t.Errorf("Take(%d) returned %d elements", yamlx.ChunkCap+1, len(big))
	}
	c.Rewind()
	if _, n := c.Held(); n != 0 {
		t.Errorf("Rewind kept a chunk of %d, over the cap %d", n, yamlx.ChunkCap)
	}
}

// TestArenaNodesMarshalAsHeapNodes: a document built in an arena
// marshals as the same document built from the package's constructors,
// and a ShallowClone in the arena leaves its original as it was.
func TestArenaNodesMarshalAsHeapNodes(t *testing.T) {
	var a yamlx.Arena
	heap := yamlx.Map()
	heap.Set("name", yamlx.String("web"))
	heap.Set("replicas", yamlx.Integer(3))
	heap.Set("ports", yamlx.Seq(yamlx.Integer(80), yamlx.Integer(443)))
	heap.Set("empty", yamlx.Map())
	built := a.Map(
		yamlx.Entry{Key: "name", Value: a.String("web")},
		yamlx.Entry{Key: "replicas", Value: a.Integer(3)},
		yamlx.Entry{Key: "ports", Value: a.Seq(a.Integer(80), a.Integer(443))},
		yamlx.Entry{Key: "empty", Value: a.Map()},
	)
	want := yamlx.MarshalString(heap)
	if got := yamlx.MarshalString(built); got != want {
		t.Errorf("arena document:\n%s\nheap document:\n%s", got, want)
	}
	c := a.ShallowClone(built)
	c.Set("replicas", a.Integer(1)).Set("status", a.Map()).Set("kind", a.String("Pod"))
	if got := yamlx.MarshalString(built); got != want {
		t.Errorf("writing a ShallowClone changed its original:\n%s", got)
	}
	a.Rewind()
	if n := a.Node(); n.Kind != yamlx.NullKind || n.Str != "" || n.Entries != nil {
		t.Errorf("a rewound arena handed out %+v, want a zeroed node", n)
	}
}

// TestTextInChunks: CopyText and JoinText give strings.Join's text, in
// the chunks when given them and on the heap when not; a lone part is
// returned as it is, and a string built earlier keeps its bytes while
// later ones are taken after it.
func TestTextInChunks(t *testing.T) {
	var c yamlx.Chunks[byte]
	for _, chunks := range []*yamlx.Chunks[byte]{&c, nil} {
		var built, want []string
		for _, parts := range [][]string{nil, {""}, {"", ""}, {"web"}, {"web", "7d9f", "0"}, {strings.Repeat("x", 3000), "y"}} {
			built = append(built, yamlx.JoinText(chunks, parts, "-"), yamlx.CopyText(chunks, []byte(strings.Join(parts, "+"))))
			want = append(want, strings.Join(parts, "-"), strings.Join(parts, "+"))
		}
		if !slices.Equal(built, want) {
			t.Errorf("chunks %v: built %q, want %q", chunks != nil, built, want)
		}
	}
	lone := "web"
	if got := yamlx.JoinText(&c, []string{lone}, ","); unsafe.StringData(got) != unsafe.StringData(lone) {
		t.Error("a lone part was copied")
	}
	if taken, _ := c.Held(); taken == 0 {
		t.Error("nothing was taken from the chunks")
	}
}
