package llm

import (
	"sync"

	"cloudeval/internal/yamlx"
)

// arena is the memory one corruptor call writes. The compiled trees of
// a genContext are shared and never written, so an edit copies the
// nodes from the document root down to what it changes (own, ownPath)
// and leaves every other subtree shared; the copies and the new
// scalars come from here. The call renders its answer — a string of
// its own bytes — and releases the arena; nothing outlives the call
// that points into it.
type arena struct {
	nodes   []yamlx.Node
	entries []yamlx.Entry
	items   []*yamlx.Node
	owned   []*yamlx.Node // the mappings and sequences copied so far
}

var arenas = sync.Pool{New: func() any { return new(arena) }}

// release zeroes what the call used, so that a pooled arena keeps no
// string or tree alive, and returns it to the pool.
func (a *arena) release() {
	clear(a.nodes)
	clear(a.entries)
	clear(a.items)
	clear(a.owned)
	a.nodes, a.entries, a.items, a.owned = a.nodes[:0], a.entries[:0], a.items[:0], a.owned[:0]
	arenas.Put(a)
}

// slots takes n zeroed elements off the end of *s. A chunk that is full
// is left to the nodes that point into it and a larger one started.
func slots[T any](s *[]T, n int) []T {
	if cap(*s)-len(*s) < n {
		*s = make([]T, 0, max(64, 2*cap(*s), n))
	}
	l := len(*s)
	*s = (*s)[:l+n]
	return (*s)[l : l+n : l+n]
}

func (a *arena) node() *yamlx.Node { return &slots(&a.nodes, 1)[0] }

func (a *arena) str(s string) *yamlx.Node {
	n := a.node()
	n.Kind, n.Str = yamlx.StringKind, s
	return n
}

// docs is a document list the call may write, over the shared documents.
func (a *arena) docs(shared []*yamlx.Node) []*yamlx.Node {
	docs := slots(&a.items, len(shared))
	copy(docs, shared)
	return docs
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
	c := a.node()
	*c = *n
	switch n.Kind {
	case yamlx.MapKind:
		c.Entries = slots(&a.entries, len(n.Entries))
		copy(c.Entries, n.Entries)
	case yamlx.SeqKind:
		c.Items = slots(&a.items, len(n.Items))
		copy(c.Items, n.Items)
	}
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
