package yamlmatch

import (
	"strconv"
	"sync"

	"cloudeval/internal/yamlx"
)

// Ref is a labeled reference YAML compiled for scoring many answers
// against it. KVExactMatch and KVWildcardMatch look the reference up in
// the document cache by digest, flatten it and parse its labels — a
// YAML parse per "# v in [...]" leaf — for every answer; a Ref does all
// of that once. A Ref is immutable after construction and safe for
// concurrent use.
type Ref struct {
	// Clean is StripLabels(reference): what the text-level metrics and
	// KVExact compare against.
	Clean string

	cleanDocs []*yamlx.Node // non-null documents of Clean
	cleanOK   bool          // Clean parsed

	// The labeled reference's leaves, grouped by path. Almost every
	// group holds one leaf: a path repeats only where a key itself
	// contains "." or "[i]" and so spells another leaf's path.
	groups  [][]Leaf         // each in document order
	byPath  map[string]int32 // path → index into groups
	leaves  int              // over all groups
	labelOK bool             // the labeled reference parsed
}

// NewRef compiles a labeled reference.
func NewRef(reference string) *Ref {
	r := &Ref{Clean: StripLabels(reference), byPath: make(map[string]int32)}
	if docs, err := yamlx.ParseAllCached(r.Clean); err == nil {
		r.cleanDocs, r.cleanOK = dropNullDocs(docs), true
	}
	docs, err := yamlx.ParseAllCached(reference)
	if err != nil {
		return r
	}
	r.labelOK = true
	docs = dropNullDocs(docs)
	for i, d := range docs {
		prefix := docPrefix(i, len(docs))
		for _, l := range Flatten(d) {
			l.Path = prefix + l.Path
			g, ok := r.byPath[l.Path]
			if !ok {
				g = int32(len(r.groups))
				r.byPath[l.Path] = g
				r.groups = append(r.groups, nil)
			}
			r.groups[g] = append(r.groups[g], l)
			r.leaves++
		}
	}
	return r
}

// KVWildcard is KVWildcardMatch(generated, reference).
func (r *Ref) KVWildcard(generated string) float64 {
	docs, err := yamlx.ParseAllCached(generated)
	if err != nil {
		return 0
	}
	return r.kvWildcard(docs)
}

// Score is KVExactMatch(generated, r.Clean) and
// KVWildcardMatch(generated, reference) on one parse of the answer.
func (r *Ref) Score(generated string) (kvExact, kvWildcard float64) {
	docs, err := yamlx.ParseAllCached(generated)
	if err != nil {
		return 0, 0
	}
	return r.kvExact(docs), r.kvWildcard(docs)
}

func isNullDoc(d *yamlx.Node) bool { return d == nil || d.Kind == yamlx.NullKind }

func countDocs(docs []*yamlx.Node) int {
	n := 0
	for _, d := range docs {
		if !isNullDoc(d) {
			n++
		}
	}
	return n
}

func (r *Ref) kvExact(gen []*yamlx.Node) float64 {
	if !r.cleanOK || countDocs(gen) != len(r.cleanDocs) {
		return 0
	}
	i := 0
	for _, d := range gen {
		if isNullDoc(d) {
			continue
		}
		if !yamlx.Equal(d, r.cleanDocs[i]) {
			return 0
		}
		i++
	}
	return 1
}

// kvScratch is what one kvWildcard call needs besides the reference:
// the path being walked, which groups have matched, and — only for a
// reference with a repeated path — the generated values seen at one.
type kvScratch struct {
	path    []byte
	matched []bool
	dups    []dupValue
}

// dupValue is a generated leaf at a path the reference holds twice.
type dupValue struct {
	group int32
	value string
	used  bool
}

var kvPool = sync.Pool{New: func() any { return new(kvScratch) }}

// kvWalk is one walk over the generated documents.
type kvWalk struct {
	ref     *Ref
	sc      *kvScratch
	base    int // length of the document prefix in sc.path
	leaves  int // generated leaves seen
	matched int
}

func (r *Ref) kvWildcard(gen []*yamlx.Node) float64 {
	if !r.labelOK {
		return 0
	}
	sc := kvPool.Get().(*kvScratch)
	defer kvPool.Put(sc)
	if cap(sc.matched) < len(r.groups) {
		sc.matched = make([]bool, len(r.groups))
	}
	sc.matched = sc.matched[:len(r.groups)]
	clear(sc.matched)
	sc.dups = sc.dups[:0]

	w := kvWalk{ref: r, sc: sc}
	total, i := countDocs(gen), 0
	for _, d := range gen {
		if isNullDoc(d) {
			continue
		}
		sc.path = sc.path[:0]
		if total > 1 {
			sc.path = append(sc.path, "doc["...)
			sc.path = strconv.AppendInt(sc.path, int64(i), 10)
			sc.path = append(sc.path, "]."...)
		}
		w.base = len(sc.path)
		w.node(d)
		i++
	}
	if len(sc.dups) > 0 {
		w.matchDups()
	}

	if w.leaves == 0 && r.leaves == 0 {
		return 1
	}
	union := w.leaves + r.leaves - w.matched
	if union == 0 {
		return 1
	}
	return float64(w.matched) / float64(union)
}

// node walks n as flattenInto does, with the path in sc.path.
func (w *kvWalk) node(n *yamlx.Node) {
	if n == nil {
		return
	}
	sc := w.sc
	switch n.Kind {
	case yamlx.MapKind:
		if len(n.Entries) == 0 {
			w.leaf(nil, "{}")
			return
		}
		mark := len(sc.path)
		for _, e := range n.Entries {
			if mark > w.base {
				sc.path = append(sc.path, '.')
			}
			sc.path = append(sc.path, e.Key...)
			w.node(e.Value)
			sc.path = sc.path[:mark]
		}
	case yamlx.SeqKind:
		if len(n.Items) == 0 {
			w.leaf(nil, "[]")
			return
		}
		mark := len(sc.path)
		for i, it := range n.Items {
			sc.path = append(sc.path, '[')
			sc.path = strconv.AppendInt(sc.path, int64(i), 10)
			sc.path = append(sc.path, ']')
			w.node(it)
			sc.path = sc.path[:mark]
		}
	default:
		w.leaf(n, "")
	}
}

// leaf scores the generated leaf at sc.path: the scalar n, or the empty
// container written lit. The reference leaf of its path takes the first
// generated leaf that satisfies its label, as in leafIoU.
func (w *kvWalk) leaf(n *yamlx.Node, lit string) {
	w.leaves++
	g, ok := w.ref.byPath[string(w.sc.path)]
	if !ok {
		return
	}
	group := w.ref.groups[g]
	if len(group) > 1 {
		if n != nil {
			lit = n.ScalarString()
		}
		w.sc.dups = append(w.sc.dups, dupValue{group: g, value: lit})
		return
	}
	if !w.sc.matched[g] && satisfies(&group[0], n, lit) {
		w.sc.matched[g] = true
		w.matched++
	}
}

// matchDups settles the paths the reference holds more than once: each
// reference leaf, in document order, consumes the first generated value
// left at its path that satisfies its label.
func (w *kvWalk) matchDups() {
	for g, group := range w.ref.groups {
		if len(group) < 2 {
			continue
		}
		for _, rl := range group {
			for i := range w.sc.dups {
				d := &w.sc.dups[i]
				if d.group == int32(g) && !d.used && rl.Label.Match(d.value, rl.Value) {
					d.used = true
					w.matched++
					break
				}
			}
		}
	}
}

// satisfies is rl.Label.Match(value, rl.Value) for the generated value
// held by the scalar n — or, when n is nil, by lit — without rendering
// the scalar first.
func satisfies(rl *Leaf, n *yamlx.Node, lit string) bool {
	switch rl.Label.Kind {
	case WildcardLabel:
		return true
	case SetLabel:
		for _, v := range rl.Label.Values {
			if scalarIs(n, lit, v) {
				return true
			}
		}
		return false
	}
	return scalarIs(n, lit, rl.Value)
}

// scalarIs reports n.ScalarString() == want (lit == want for a nil n).
// Strings and integers, which is nearly every leaf of a manifest, are
// compared without building the rendering.
func scalarIs(n *yamlx.Node, lit, want string) bool {
	switch {
	case n == nil:
		return lit == want
	case n.Kind == yamlx.StringKind:
		return n.Str == want
	case n.Kind == yamlx.IntKind:
		var buf [20]byte // fits math.MinInt64
		return string(strconv.AppendInt(buf[:0], n.Int, 10)) == want
	}
	return n.ScalarString() == want
}
