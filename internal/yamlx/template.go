package yamlx

import (
	"math"
	"math/bits"
	"sync"
)

// Template is a set of documents rendered once, with the place of every
// node in the rendering remembered. Marshalling other documents through
// it copies the remembered bytes for each child that is one of the
// template's own nodes — the same pointer, in the same role, at the
// same column — and walks only the rest, so an edited copy that shares
// its untouched subtrees with the template's documents costs its edits.
// The output is MarshalAll's for any documents at all.
//
// Pointer identity stands for "unchanged": the template's documents
// must not be written after NewTemplate returns. An edit copies the
// nodes from the root down to what it changes and leaves the rest
// shared.
type Template struct {
	text string // MarshalAll of the documents
	// cells is an open-addressed table of the spans, hashed by the node's
	// source line, linear probing; node == nil marks an empty cell. A
	// parsed tree has a node or three to a line. Synthesized nodes all
	// have line 0 and chain, which costs time, not correctness.
	cells []span
	shift uint8
}

// span is where text holds one node's rendering. The column belongs to
// the key because the bytes do: a subtree moved one level deeper is
// padded differently on every line.
type span struct {
	node       *Node
	start, end uint32
	col        uint16
	role       uint8
}

// NewTemplate renders docs and records the span of every document,
// mapping-entry value and sequence item.
func NewTemplate(docs []*Node) *Template {
	e := emitter{rec: true}
	e.all(docs)
	t := &Template{text: string(e.buf)}
	if len(e.spans) == 0 {
		return t
	}
	// Load at most 3/4, so a probe always ends at an empty cell.
	size := 1 << bits.Len(uint(len(e.spans)*4/3))
	t.cells = make([]span, size)
	t.shift = uint8(32 - bits.TrailingZeros(uint(size)))
	for _, s := range e.spans {
		i := t.home(s.node)
		for t.cells[i].node != nil {
			i = (i + 1) & (size - 1)
		}
		t.cells[i] = s
	}
	return t
}

func (t *Template) home(n *Node) int {
	return int(uint32(n.Line) * 2654435769 >> t.shift)
}

// MarshalAll returns string(yamlx.MarshalAll(docs)).
func (t *Template) MarshalAll(docs []*Node) string {
	e := emitters.Get().(*emitter)
	e.use = t
	e.all(docs)
	return e.finish()
}

// Marshal returns MarshalString(doc).
func (t *Template) Marshal(doc *Node) string {
	e := emitters.Get().(*emitter)
	e.use = t
	e.doc(doc)
	return e.finish()
}

// emitters recycles the buffers templated output is built in; what is
// returned is a copy.
var emitters = sync.Pool{New: func() any { return new(emitter) }}

func (e *emitter) finish() string {
	s := string(e.buf)
	e.buf, e.use = e.buf[:0], nil
	emitters.Put(e)
	return s
}

// reuse writes n's rendering from the template's text, if the template
// has n in this role at this column.
func (e *emitter) reuse(n *Node, col int, role uint8) bool {
	t := e.use
	if t == nil || n == nil || len(t.cells) == 0 {
		return false
	}
	for i := t.home(n); ; i = (i + 1) & (len(t.cells) - 1) {
		c := &t.cells[i]
		if c.node == nil {
			return false
		}
		if c.node == n && int(c.col) == col && c.role == role {
			e.buf = append(e.buf, t.text[c.start:c.end]...)
			return true
		}
	}
}

// record notes that buf[start:] is n's rendering. A span that does not
// fit its fields is not recorded, and that node is walked instead.
func (e *emitter) record(n *Node, col int, role uint8, start int) {
	if !e.rec || n == nil || len(e.buf) > math.MaxUint32 || col > math.MaxUint16 {
		return
	}
	e.spans = append(e.spans, span{node: n, start: uint32(start), end: uint32(len(e.buf)), col: uint16(col), role: role})
}
