package llm

import (
	"math/rand"
	"strings"

	"cloudeval/internal/dataset"
	"cloudeval/internal/memo"
	"cloudeval/internal/yamlmatch"
	"cloudeval/internal/yamlx"
)

// genContext is the half of a generation that depends on the problem
// alone, compiled once: every model, sample and shot count answers the
// same reference, and the corruptors all start from the same stripped
// text, the same parsed documents and the same set of leaves the unit
// test looks at. The documents are shared between goroutines (and with
// yamlx's document cache): a corruptor clones them before it mutates
// and never writes through a context's nodes.
type genContext struct {
	clean string // reference text with the match labels stripped
	// lineEnds[i] is the offset in clean where line i ends, over the
	// lines of clean less its trailing newlines.
	lineEnds []int
	docs     []*yamlx.Node // clean parsed; nil if it does not parse
	labeled  []*yamlx.Node // labeled reference parsed, labels in Comment; nil likewise
	tested   [][]int       // paths to the scalar leaves of docs whose value the unit test mentions
}

// genKey is the content a genContext is a pure function of.
type genKey struct{ reference, unitTest string }

// genContexts is capped like the other content-keyed caches: the corpus
// has a few hundred distinct references, and a full cache compiles
// fresh instead of growing.
var genContexts = memo.New[genKey, *genContext](1 << 12)

func contextFor(p dataset.Problem) *genContext {
	return genContexts.Do(genKey{p.ReferenceYAML, p.UnitTest}, func() *genContext {
		return compileContext(p.ReferenceYAML, p.UnitTest)
	})
}

func compileContext(reference, unitTest string) *genContext {
	c := &genContext{clean: yamlmatch.StripLabels(reference)}
	body := strings.TrimRight(c.clean, "\n")
	for i := 0; i < len(body); i++ {
		if body[i] == '\n' {
			c.lineEnds = append(c.lineEnds, i)
		}
	}
	c.lineEnds = append(c.lineEnds, len(body))
	if docs, err := yamlx.ParseAllCached([]byte(reference)); err == nil {
		c.labeled = docs
	}
	docs, err := yamlx.ParseAllCached([]byte(c.clean))
	if err != nil {
		return c
	}
	c.docs = docs
	// A path is the document's index, then child positions (entry or
	// item index) down to the leaf; it finds the same leaf in a clone.
	// Positions stand in for keys: a parsed mapping has no duplicates.
	var path []int
	var visit func(n *yamlx.Node)
	visit = func(n *yamlx.Node) {
		switch {
		case n == nil:
		case n.IsScalar():
			if v := n.ScalarString(); v != "" && strings.Contains(unitTest, v) {
				c.tested = append(c.tested, append([]int(nil), path...))
			}
		default:
			for i := 0; i < len(n.Entries)+len(n.Items); i++ {
				// kind and apiVersion are category 4's to get wrong.
				if n.Kind == yamlx.MapKind && (n.Entries[i].Key == "kind" || n.Entries[i].Key == "apiVersion") {
					continue
				}
				path = append(path, i)
				visit(child(n, i))
				path = path[:len(path)-1]
			}
		}
	}
	for i, d := range docs {
		if !d.IsScalar() { // a bare scalar document is not a leaf of anything
			path = append(path[:0], i)
			visit(d)
		}
	}
	return c
}

// child is n's child at position pos: an entry's value or an item.
func child(n *yamlx.Node, pos int) *yamlx.Node {
	if n.Kind == yamlx.MapKind {
		return n.Entries[pos].Value
	}
	return n.Items[pos]
}

// mutateLeaf replaces the scalar at path in docs with a mutated one.
func mutateLeaf(docs []*yamlx.Node, path []int, rng *rand.Rand) {
	n := docs[path[0]]
	for _, pos := range path[1 : len(path)-1] {
		n = child(n, pos)
	}
	last := path[len(path)-1]
	if n.Kind == yamlx.MapKind {
		n.Entries[last].Value = mutateScalar(n.Entries[last].Value, rng)
	} else {
		n.Items[last] = mutateScalar(n.Items[last], rng)
	}
}
