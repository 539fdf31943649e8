// Package yamlx implements the YAML subset used by cloud-native
// configuration files: block and flow styles, nested mappings and
// sequences, scalar type inference, quoting, literal/folded block
// scalars, multi-document streams, and trailing comments.
//
// Comments are preserved on parse because CloudEval-YAML reference files
// carry match labels as comments (for example "# *" for wildcard match
// and "# v in [...]" for conditional match); the yamlmatch package
// interprets them.
//
// The package is written from scratch on the standard library only.
package yamlx

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind identifies the type of a Node.
type Kind int

// Node kinds.
const (
	NullKind Kind = iota
	BoolKind
	IntKind
	FloatKind
	StringKind
	MapKind
	SeqKind
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case NullKind:
		return "null"
	case BoolKind:
		return "bool"
	case IntKind:
		return "int"
	case FloatKind:
		return "float"
	case StringKind:
		return "string"
	case MapKind:
		return "map"
	case SeqKind:
		return "seq"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Entry is a single key/value pair in a mapping. Order is preserved.
type Entry struct {
	Key   string
	Value *Node
}

// Node is a parsed YAML value.
type Node struct {
	Kind Kind

	Bool  bool
	Int   int64
	Float float64
	Str   string

	Entries []Entry // MapKind
	Items   []*Node // SeqKind

	// Comment holds the trailing "#" comment attached to the line this
	// node's value appeared on, without the leading "#" and surrounding
	// whitespace. Empty when there is none.
	Comment string

	// Quoted records that a string scalar was written with quotes, so
	// "5000" stays a string rather than an int on round trips.
	Quoted bool

	// Line is the 1-based source line of the value, 0 if synthesized.
	Line int
}

// Null returns a new null node.
func Null() *Node { return &Node{Kind: NullKind} }

// Boolean returns a new bool node.
func Boolean(v bool) *Node { return &Node{Kind: BoolKind, Bool: v} }

// Integer returns a new int node.
func Integer(v int64) *Node { return &Node{Kind: IntKind, Int: v} }

// Number returns a new float node.
func Number(v float64) *Node { return &Node{Kind: FloatKind, Float: v} }

// String returns a new string node.
func String(v string) *Node { return &Node{Kind: StringKind, Str: v} }

// Map returns a new empty mapping node.
func Map() *Node { return &Node{Kind: MapKind} }

// Seq returns a new empty sequence node.
func Seq(items ...*Node) *Node { return &Node{Kind: SeqKind, Items: items} }

// Set inserts or replaces key in a mapping, returning the node for
// chaining. It panics if n is not a mapping.
func (n *Node) Set(key string, v *Node) *Node {
	if n.Kind != MapKind {
		panic("yamlx: Set on non-map node")
	}
	for i := range n.Entries {
		if n.Entries[i].Key == key {
			n.Entries[i].Value = v
			return n
		}
	}
	n.Entries = append(n.Entries, Entry{Key: key, Value: v})
	return n
}

// Get returns the value for key in a mapping, or nil when absent or when
// n is not a mapping.
func (n *Node) Get(key string) *Node {
	if n == nil || n.Kind != MapKind {
		return nil
	}
	for i := range n.Entries {
		if n.Entries[i].Key == key {
			return n.Entries[i].Value
		}
	}
	return nil
}

// Has reports whether a mapping contains key.
func (n *Node) Has(key string) bool { return n.Get(key) != nil }

// Delete removes key from a mapping and reports whether it was present.
func (n *Node) Delete(key string) bool {
	if n == nil || n.Kind != MapKind {
		return false
	}
	for i := range n.Entries {
		if n.Entries[i].Key == key {
			n.Entries = append(n.Entries[:i], n.Entries[i+1:]...)
			return true
		}
	}
	return false
}

// Path walks nested mappings/sequences: string elements index mappings,
// int elements index sequences. It returns nil when any step is missing.
func (n *Node) Path(elems ...any) *Node {
	cur := n
	for _, e := range elems {
		if cur == nil {
			return nil
		}
		switch idx := e.(type) {
		case string:
			cur = cur.Get(idx)
		case int:
			if cur.Kind != SeqKind || idx < 0 || idx >= len(cur.Items) {
				return nil
			}
			cur = cur.Items[idx]
		default:
			return nil
		}
	}
	return cur
}

// Append adds an item to a sequence. It panics if n is not a sequence.
func (n *Node) Append(items ...*Node) *Node {
	if n.Kind != SeqKind {
		panic("yamlx: Append on non-seq node")
	}
	n.Items = append(n.Items, items...)
	return n
}

// Len returns the number of entries (map) or items (seq), 0 otherwise.
func (n *Node) Len() int {
	if n == nil {
		return 0
	}
	switch n.Kind {
	case MapKind:
		return len(n.Entries)
	case SeqKind:
		return len(n.Items)
	}
	return 0
}

// IsScalar reports whether the node is a scalar (not map/seq).
func (n *Node) IsScalar() bool {
	return n != nil && n.Kind != MapKind && n.Kind != SeqKind
}

// ScalarString renders a scalar node as the string a user would have
// typed: "nginx:latest", "80", "true". Maps and sequences render as
// their flow form.
func (n *Node) ScalarString() string {
	if n == nil {
		return ""
	}
	switch n.Kind {
	case NullKind:
		return ""
	case BoolKind:
		if n.Bool {
			return "true"
		}
		return "false"
	case IntKind:
		return strconv.FormatInt(n.Int, 10)
	case FloatKind:
		return formatFloat(n.Float)
	case StringKind:
		return n.Str
	default:
		return string(MarshalFlow(n))
	}
}

// AsInt returns the value as an int64 where sensible (ints, numeric
// strings, floats with integral value, bools as 0/1).
func (n *Node) AsInt() (int64, bool) {
	if n == nil {
		return 0, false
	}
	switch n.Kind {
	case IntKind:
		return n.Int, true
	case FloatKind:
		if n.Float == math.Trunc(n.Float) {
			return int64(n.Float), true
		}
	case StringKind:
		v, err := strconv.ParseInt(strings.TrimSpace(n.Str), 10, 64)
		if err == nil {
			return v, true
		}
	case BoolKind:
		if n.Bool {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

// Clone returns a deep copy of the node.
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	c := *n
	if n.Kind == MapKind {
		c.Entries = make([]Entry, len(n.Entries))
		for i, e := range n.Entries {
			c.Entries[i] = Entry{Key: e.Key, Value: e.Value.Clone()}
		}
	}
	if n.Kind == SeqKind {
		c.Items = make([]*Node, len(n.Items))
		for i, it := range n.Items {
			c.Items[i] = it.Clone()
		}
	}
	return &c
}

// Equal reports semantic equality: mappings compare as unordered
// key→value sets (YAML mappings are unordered), sequences compare in
// order, and scalars compare by canonical value. Comments and quoting
// style are ignored.
func Equal(a, b *Node) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	ak, bk := canonicalKind(a), canonicalKind(b)
	if ak != bk {
		return false
	}
	switch ak {
	case MapKind:
		if len(a.Entries) != len(b.Entries) {
			return false
		}
		for _, e := range a.Entries {
			bv := b.Get(e.Key)
			if bv == nil || !Equal(e.Value, bv) {
				return false
			}
		}
		return true
	case SeqKind:
		if len(a.Items) != len(b.Items) {
			return false
		}
		for i := range a.Items {
			if !Equal(a.Items[i], b.Items[i]) {
				return false
			}
		}
		return true
	default:
		return a.ScalarString() == b.ScalarString()
	}
}

// canonicalKind folds quoted-string numerics into their scalar family so
// that Equal("80") == Equal(80) is false but Equal over identical
// ScalarStrings of the same family works; scalars all compare in one
// family here.
func canonicalKind(n *Node) Kind {
	switch n.Kind {
	case MapKind, SeqKind:
		return n.Kind
	default:
		return StringKind
	}
}

func formatFloat(f float64) string {
	s := strconv.FormatFloat(f, 'g', -1, 64)
	if !strings.ContainsAny(s, ".eE") {
		s += ".0"
	}
	return s
}
