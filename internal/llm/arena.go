package llm

import (
	"sync"

	"cloudeval/internal/yamlx"
)

// arena is the memory one generation writes. The compiled trees of a
// genContext are shared and never written, so an edit copies the nodes
// from the document root down to what it changes (own, ownPath) and
// leaves every other subtree shared; the copies and the new scalars
// come from the embedded yamlx.Arena, and the bytes of the strings the
// edits make from text. The generation renders its response into out —
// the wrap prefix, the answer, the suffix — copies that out as the
// string it returns, and releases the arena; nothing outlives the call
// that points into it.
type arena struct {
	yamlx.Arena
	owned []*yamlx.Node // the mappings and sequences copied so far
	text  yamlx.Chunks[byte]
	out   []byte // the response being rendered
}

// maxOut is the largest response buffer a pooled arena keeps.
const maxOut = 64 << 10

var arenas = sync.Pool{New: func() any { return new(arena) }}

// release rewinds the arena, so that a pooled arena keeps no string or
// tree alive, and returns it to the pool.
func (a *arena) release() {
	a.Rewind()
	a.text.Rewind()
	clear(a.owned)
	a.owned = a.owned[:0]
	a.out = a.out[:0]
	if cap(a.out) > maxOut {
		a.out = nil
	}
	arenas.Put(a)
}

// concat returns x+y+z in bytes of the arena's: like the arena's nodes,
// the string is valid until release, and must not be kept past it.
func (a *arena) concat(x, y, z string) string {
	return yamlx.JoinText(&a.text, []string{x, y, z}, "")
}

// docs is a document list the call may write, over the shared documents.
func (a *arena) docs(shared []*yamlx.Node) []*yamlx.Node {
	return a.CopyItems(shared)
}

// own returns n if this call has already copied it, else a copy whose
// own fields and child lists the call may write. The children stay
// shared.
func (a *arena) own(n *yamlx.Node) *yamlx.Node {
	for _, o := range a.owned {
		if o == n {
			return n
		}
	}
	c := a.ShallowClone(n)
	a.owned = append(a.owned, c)
	return c
}

// ownPath makes the call's own every node from document path[0] down
// the child positions path[1:], and returns the last.
func (a *arena) ownPath(docs []*yamlx.Node, path []int) *yamlx.Node {
	n := a.own(docs[path[0]])
	docs[path[0]] = n
	for _, pos := range path[1:] {
		c := a.own(child(n, pos))
		setChild(n, pos, c)
		n = c
	}
	return n
}
