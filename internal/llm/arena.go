package llm

import (
	"sync"

	"cloudeval/internal/yamlx"
)

// arena is the memory one corruptor call writes. The compiled trees of
// a genContext are shared and never written, so an edit copies the
// nodes from the document root down to what it changes (own, ownPath)
// and leaves every other subtree shared; the copies and the new
// scalars come from the embedded yamlx.Arena. The call renders its
// answer — a string of its own bytes — and releases the arena; nothing
// outlives the call that points into it.
type arena struct {
	yamlx.Arena
	owned []*yamlx.Node // the mappings and sequences copied so far
}

var arenas = sync.Pool{New: func() any { return new(arena) }}

// release rewinds the arena, so that a pooled arena keeps no string or
// tree alive, and returns it to the pool.
func (a *arena) release() {
	a.Rewind()
	clear(a.owned)
	a.owned = a.owned[:0]
	arenas.Put(a)
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
