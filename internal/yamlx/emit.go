package yamlx

import (
	"strconv"
	"strings"
)

// Marshal renders a node as block-style YAML with two-space indentation.
// Comments attached to scalar values are emitted as trailing comments so
// labeled reference files round-trip.
func Marshal(n *Node) []byte {
	e := emitter{buf: make([]byte, 0, 256)}
	e.doc(n)
	return e.buf
}

// MarshalString is Marshal returning a string.
func MarshalString(n *Node) string { return string(Marshal(n)) }

// MarshalAll renders multiple documents separated by "---".
func MarshalAll(docs []*Node) []byte {
	e := emitter{buf: make([]byte, 0, 256)}
	e.all(docs)
	return e.buf
}

// MarshalFlow renders a node in single-line flow style: {a: 1, b: [2]}.
func MarshalFlow(n *Node) []byte { return appendFlow(nil, n) }

// emitter is the block renderer. Every child of a mapping or sequence
// is written by value or item, and a document by doc; those three are
// where a Template's spans are recorded (rec) and copied back (use).
// With neither set it is the plain emitter.
type emitter struct {
	buf   []byte
	use   *Template // copy the spans of this template's nodes instead of walking them
	rec   bool      // record a span for every child written
	spans []span
}

// A node is written in one of three roles, and what is written depends
// on the role, the column and the subtree — nothing else.
const (
	roleDoc   uint8 = iota // a document: its lines from column 0
	roleValue              // a mapping entry's value: everything after "key:"
	roleItem               // a sequence item: its lines, padding and dash included
)

func (e *emitter) all(docs []*Node) {
	for i, d := range docs {
		if i > 0 {
			e.buf = append(e.buf, "---\n"...)
		}
		e.doc(d)
	}
}

func (e *emitter) doc(n *Node) {
	if n == nil || e.reuse(n, 0, roleDoc) {
		return
	}
	start := len(e.buf)
	switch n.Kind {
	case MapKind:
		if len(n.Entries) == 0 {
			e.buf = append(e.buf, "{}\n"...)
		} else {
			e.entries(n, 0, false)
		}
	case SeqKind:
		if len(n.Items) == 0 {
			e.buf = append(e.buf, "[]\n"...)
		} else {
			e.items(n, 0)
		}
	default:
		e.scalarLine(n)
	}
	e.record(n, 0, roleDoc, start)
}

const spaces = "                                                                "

// pad writes the indentation of column col, two spaces a level.
func (e *emitter) pad(col int) {
	for n := 2 * col; n > 0; n -= len(spaces) {
		e.buf = append(e.buf, spaces[:min(n, len(spaces))]...)
	}
}

// entries writes the entries of a non-empty mapping with keys at column
// col. With dash the mapping is a sequence item: its first key follows
// "- " one column to the left, the rest align under it.
func (e *emitter) entries(m *Node, col int, dash bool) {
	for i := range m.Entries {
		if dash && i == 0 {
			e.pad(col - 1)
			e.buf = append(e.buf, "- "...)
		} else {
			e.pad(col)
		}
		e.buf = append(appendKey(e.buf, m.Entries[i].Key), ':')
		e.value(m.Entries[i].Value, col)
	}
}

// value writes what follows "key:" for a key at column col, through the
// end of the value's last line.
func (e *emitter) value(v *Node, col int) {
	if e.reuse(v, col, roleValue) {
		return
	}
	start := len(e.buf)
	switch {
	case v == nil || v.Kind == NullKind:
		e.comment(v)
		e.buf = append(e.buf, '\n')
	case v.Kind == MapKind && len(v.Entries) > 0:
		e.buf = append(e.buf, '\n')
		e.entries(v, col+1, false)
	case v.Kind == SeqKind && len(v.Items) > 0:
		e.buf = append(e.buf, '\n')
		e.items(v, col)
	case v.Kind == StringKind && strings.Contains(v.Str, "\n"):
		e.literal(v.Str, col+1)
	default:
		e.buf = append(e.buf, ' ')
		e.scalarLine(v)
	}
	e.record(v, col, roleValue, start)
}

func (e *emitter) items(s *Node, col int) {
	for _, it := range s.Items {
		e.item(it, col)
	}
}

// item writes one sequence item whose dash is at column col.
func (e *emitter) item(it *Node, col int) {
	if e.reuse(it, col, roleItem) {
		return
	}
	start := len(e.buf)
	switch {
	case it == nil || it.Kind == NullKind:
		e.pad(col)
		e.buf = append(e.buf, "-\n"...)
	case it.Kind == MapKind && len(it.Entries) > 0:
		e.entries(it, col+1, true)
	case it.Kind == SeqKind && len(it.Items) > 0:
		e.pad(col)
		e.buf = append(e.buf, "-\n"...)
		e.items(it, col+1)
	default:
		e.pad(col)
		e.buf = append(e.buf, "- "...)
		e.scalarLine(it)
	}
	e.record(it, col, roleItem, start)
}

// literal writes a multi-line string as a "|" block scalar after its
// key, the body at column col.
func (e *emitter) literal(text string, col int) {
	e.buf = append(e.buf, " |"...)
	if !strings.HasSuffix(text, "\n") {
		e.buf = append(e.buf, '-')
	}
	e.buf = append(e.buf, '\n')
	body := strings.TrimSuffix(text, "\n")
	for more := true; more; {
		var ln string
		ln, body, more = strings.Cut(body, "\n")
		if ln != "" {
			e.pad(col)
			e.buf = append(e.buf, ln...)
		}
		e.buf = append(e.buf, '\n')
	}
}

// scalarLine writes a scalar (or an empty collection in flow form), its
// trailing comment and the newline.
func (e *emitter) scalarLine(n *Node) {
	e.buf = appendScalar(e.buf, n)
	e.comment(n)
	e.buf = append(e.buf, '\n')
}

func (e *emitter) comment(n *Node) {
	if n != nil && n.Comment != "" {
		e.buf = append(append(e.buf, " # "...), n.Comment...)
	}
}

func appendKey(b []byte, k string) []byte {
	if needsQuoting(k) {
		return strconv.AppendQuote(b, k)
	}
	return append(b, k...)
}

func appendScalar(b []byte, n *Node) []byte {
	switch n.Kind {
	case NullKind:
		return append(b, "null"...)
	case BoolKind:
		return strconv.AppendBool(b, n.Bool)
	case IntKind:
		return strconv.AppendInt(b, n.Int, 10)
	case FloatKind:
		return append(b, formatFloat(n.Float)...)
	case StringKind:
		if n.Quoted || needsQuoting(n.Str) || inferredKindChanges(n.Str) {
			return strconv.AppendQuote(b, n.Str)
		}
		return append(b, n.Str...)
	case MapKind, SeqKind:
		return appendFlow(b, n)
	}
	return b
}

// inferredKindChanges reports whether the bare string would re-parse as a
// different scalar type and therefore must be quoted to stay a string.
func inferredKindChanges(s string) bool {
	return s == "" || inferKind(s) != StringKind
}

func needsQuoting(s string) bool {
	if s == "" {
		return true
	}
	if strings.ContainsAny(s, "\n\"'") {
		return true
	}
	if strings.HasPrefix(s, " ") || strings.HasSuffix(s, " ") {
		return true
	}
	switch s[0] {
	case '[', '{', ']', '}', '#', '&', '*', '!', '|', '>', '%', '@', '`', '-', '?':
		// A leading dash is fine when not followed by a space.
		if s[0] == '-' && len(s) > 1 && s[1] != ' ' {
			break
		}
		return true
	}
	// "key: value"-looking strings need quotes.
	if i := strings.Index(s, ": "); i >= 0 {
		return true
	}
	if strings.HasSuffix(s, ":") {
		return true
	}
	if strings.Contains(s, " #") {
		return true
	}
	return false
}

func appendFlow(b []byte, n *Node) []byte {
	if n == nil {
		return append(b, "null"...)
	}
	switch n.Kind {
	case MapKind:
		b = append(b, '{')
		for i, e := range n.Entries {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = append(appendKey(b, e.Key), ": "...)
			b = appendFlow(b, e.Value)
		}
		return append(b, '}')
	case SeqKind:
		b = append(b, '[')
		for i, it := range n.Items {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = appendFlow(b, it)
		}
		return append(b, ']')
	default:
		return appendScalar(b, n)
	}
}
