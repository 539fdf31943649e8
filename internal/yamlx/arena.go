package yamlx

import "unsafe"

// ChunkCap is the most elements a Chunks allocates at once, unless one
// Take asks for more. It bounds what a rewound Chunks keeps: one chunk
// of at most this many elements.
const ChunkCap = 1024

// Chunks hands out zeroed elements of T from the chunk it is filling.
// Its owner gives every element back at once (Rewind) instead of one at
// a time, so a run that builds many short-lived values pays for a chunk
// now and then instead of an allocation per value.
type Chunks[T any] struct{ cur []T }

// Take returns n zeroed elements. Their capacity is n, so appending to
// them never writes the elements taken after. A chunk that is full is
// left to the elements that point into it and a new one started, twice
// the size of the last up to ChunkCap, or n if that is more.
func (c *Chunks[T]) Take(n int) []T {
	if cap(c.cur)-len(c.cur) < n {
		c.cur = make([]T, 0, max(64, min(2*cap(c.cur), ChunkCap), n))
	}
	l := len(c.cur)
	c.cur = c.cur[:l+n]
	return c.cur[l : l+n : l+n]
}

// Rewind takes back every element handed out: it zeroes what was taken
// from the current chunk, so that no value it held is kept alive, and
// fills that chunk again from the start. A chunk larger than ChunkCap
// is dropped. Whatever still points into the chunk reads what the next
// Takes write there.
func (c *Chunks[T]) Rewind() {
	if cap(c.cur) > ChunkCap {
		c.cur = nil
		return
	}
	clear(c.cur)
	c.cur = c.cur[:0]
}

// Held reports how many elements of the current chunk have been taken
// and how many it holds.
func (c *Chunks[T]) Held() (taken, capacity int) { return len(c.cur), cap(c.cur) }

// CopyText returns b as a string whose bytes are taken from c, so that
// it costs an allocation only when c starts a chunk. Like every element
// of c, the string is good until c's owner rewinds it: one that must
// outlive that — a result, or a key of a cache that lives as long as the
// process — is copied to the heap instead. With c nil, it is.
func CopyText(c *Chunks[byte], b []byte) string {
	if len(b) == 0 {
		return ""
	}
	t := takeText(c, len(b))
	copy(t, b)
	return unsafe.String(&t[0], len(t))
}

// JoinText is strings.Join into c, under CopyText's terms, except that
// a lone part is returned as it is.
func JoinText(c *Chunks[byte], parts []string, sep string) string {
	switch len(parts) {
	case 0:
		return ""
	case 1:
		return parts[0]
	}
	n := len(sep) * (len(parts) - 1)
	for _, p := range parts {
		n += len(p)
	}
	if n == 0 {
		return ""
	}
	t := takeText(c, n)
	i := copy(t, parts[0])
	for _, p := range parts[1:] {
		i += copy(t[i:], sep)
		i += copy(t[i:], p)
	}
	return unsafe.String(&t[0], n)
}

// takeText returns n bytes from c, or from the heap when c is nil.
func takeText(c *Chunks[byte], n int) []byte {
	if c == nil {
		return make([]byte, n)
	}
	return c.Take(n)
}

// Arena builds nodes out of chunks: the nodes themselves, mapping
// entries and sequence items. Its nodes are written by their builder
// and read by anyone until the arena's owner rewinds it; after that they
// are reused, so a node from an arena must not be kept past its owner's
// Rewind. Strings are not copied: a node's Str is the string it was
// given. The zero Arena is ready to use.
type Arena struct {
	nodes   Chunks[Node]
	entries Chunks[Entry]
	items   Chunks[*Node]
}

// Rewind takes back every node the arena has built (see Chunks.Rewind).
func (a *Arena) Rewind() {
	a.nodes.Rewind()
	a.entries.Rewind()
	a.items.Rewind()
}

// Held is Chunks.Held for nodes, entries and items, in that order.
func (a *Arena) Held() (taken, capacity [3]int) {
	taken[0], capacity[0] = a.nodes.Held()
	taken[1], capacity[1] = a.entries.Held()
	taken[2], capacity[2] = a.items.Held()
	return taken, capacity
}

// Node returns a zeroed node (a null).
func (a *Arena) Node() *Node { return &a.nodes.Take(1)[0] }

// String returns a string node, as the package's String does.
func (a *Arena) String(v string) *Node {
	n := a.Node()
	n.Kind, n.Str = StringKind, v
	return n
}

// Integer returns an int node, as the package's Integer does.
func (a *Arena) Integer(v int64) *Node {
	n := a.Node()
	n.Kind, n.Int = IntKind, v
	return n
}

// Map returns a mapping of exactly these entries, in this order, copied
// into the arena.
func (a *Arena) Map(entries ...Entry) *Node {
	n := a.Node()
	n.Kind = MapKind
	if len(entries) > 0 {
		n.Entries = a.entries.Take(len(entries))
		copy(n.Entries, entries)
	}
	return n
}

// Seq returns a sequence of these items, the list copied into the arena.
func (a *Arena) Seq(items ...*Node) *Node {
	n := a.Node()
	n.Kind = SeqKind
	if len(items) > 0 {
		n.Items = a.CopyItems(items)
	}
	return n
}

// CopyItems returns a copy of a list of nodes, in the arena: the same
// nodes, in a list that may be written without touching items.
func (a *Arena) CopyItems(items []*Node) []*Node {
	c := a.items.Take(len(items))
	copy(c, items)
	return c
}

// ShallowClone is Node.ShallowClone in the arena: the copy's own shape
// may be changed, a mapping's gains up to two entries without leaving
// the arena, and the children stay shared.
func (a *Arena) ShallowClone(n *Node) *Node {
	if n == nil {
		return nil
	}
	c := a.Node()
	*c = *n
	switch n.Kind {
	case MapKind:
		c.Entries = a.entries.Take(len(n.Entries) + 2)[:len(n.Entries)]
		copy(c.Entries, n.Entries)
	case SeqKind:
		c.Items = a.CopyItems(n.Items)
	}
	return c
}
