package llm

import (
	"strings"

	"cloudeval/internal/dataset"
	"cloudeval/internal/yamlmatch"
	"cloudeval/internal/yamlx"
)

// genContext is the half of a generation that depends on the problem
// alone, compiled once: every model, sample and shot count answers the
// same reference, and the corruptors all start from the same stripped
// text, the same parsed documents and the same set of leaves the unit
// test looks at. The documents are shared between goroutines (and with
// yamlx's document cache) and never written once compileContext has
// returned: a corruptor copies the nodes above each of its edits into
// its arena and renders through the template, which takes a node it
// knows by its pointer for an untouched subtree.
type genContext struct {
	clean string // reference text with the match labels stripped
	// lineEnds[i] is the offset in clean where line i ends, over the
	// lines of clean less its trailing newlines.
	lineEnds []int
	docs     []*yamlx.Node   // clean parsed; nil if it does not parse
	tmpl     *yamlx.Template // of docs
	labeled  []*yamlx.Node   // labeled reference parsed, labels in Comment; nil likewise
	tested   [][]int         // paths to the scalar leaves of docs whose value the unit test mentions
	// noiseBase is labeled with the comment of every scalar mapping value
	// cleared, which harmlessNoise does to all of them whatever it draws;
	// subtrees with no such comment are labeled's own. noiseLabels holds
	// the labels that were cleared and make harmlessNoise draw.
	noiseBase   []*yamlx.Node
	noiseTmpl   *yamlx.Template // of noiseBase
	noiseLabels []noiseLabel
}

// noiseLabel is the wildcard or set label a scalar of noiseBase carried.
type noiseLabel struct {
	node  *yamlx.Node
	label yamlmatch.Label
}

// contextFor is p's genContext, which a problem keeps (see
// dataset.Memo) and its variants share.
func contextFor(p dataset.Problem) *genContext {
	return dataset.Memo(p, dataset.Generation, func(p dataset.Problem) *genContext {
		return compileContext(p, yamlx.ParseAllCached)
	})
}

// compileContext compiles p's context from the documents parse reads
// out of its reference: the process's document cache, or a parse of
// their own for tests that compare with or weigh what was compiled.
func compileContext(p dataset.Problem, parse func(string) ([]*yamlx.Node, error)) *genContext {
	reference, unitTest := p.ReferenceYAML, p.UnitTest
	c := &genContext{clean: yamlmatch.StripLabels(reference)}
	body := strings.TrimRight(c.clean, "\n")
	for i := 0; i < len(body); i++ {
		if body[i] == '\n' {
			c.lineEnds = append(c.lineEnds, i)
		}
	}
	c.lineEnds = append(c.lineEnds, len(body))
	if docs, err := parse(reference); err == nil {
		c.labeled = docs
		c.noiseBase = make([]*yamlx.Node, len(docs))
		for i, d := range docs {
			c.noiseBase[i] = c.clearLabels(d)
		}
		c.noiseTmpl = yamlx.NewTemplate(c.noiseBase)
	}
	docs, err := parse(c.clean)
	if err != nil {
		return c
	}
	c.docs = docs
	c.tmpl = yamlx.NewTemplate(docs)
	// A path is the document's index, then child positions (entry or
	// item index) down to the leaf; it finds the same leaf in a copy.
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

// setChild replaces n's child at position pos.
func setChild(n *yamlx.Node, pos int, c *yamlx.Node) {
	if n.Kind == yamlx.MapKind {
		n.Entries[pos].Value = c
	} else {
		n.Items[pos] = c
	}
}

// clearLabels returns n without the comments of the scalar mapping
// values below it — n itself where there are none — and notes every
// label among them that harmlessNoise draws for. Only the nodes above a
// cleared comment are copied.
func (c *genContext) clearLabels(n *yamlx.Node) *yamlx.Node {
	if n == nil || n.IsScalar() {
		return n
	}
	out := n
	for i := 0; i < n.Len(); i++ {
		v := child(n, i)
		nv := v
		switch {
		case !v.IsScalar():
			nv = c.clearLabels(v)
		case n.Kind == yamlx.MapKind && v.Comment != "":
			bare := *v
			bare.Comment = ""
			nv = &bare
			label := yamlmatch.ParseLabel(v.Comment)
			if label.Kind == yamlmatch.WildcardLabel || label.Kind == yamlmatch.SetLabel && len(label.Values) > 0 {
				c.noiseLabels = append(c.noiseLabels, noiseLabel{nv, label})
			}
		}
		if nv != v {
			if out == n {
				out = n.ShallowClone()
			}
			setChild(out, i, nv)
		}
	}
	return out
}

// labelOf is the label harmlessNoise draws for at scalar v of
// noiseBase, nil if it has none. A reference has a handful at most.
func (c *genContext) labelOf(v *yamlx.Node) *yamlmatch.Label {
	for i := range c.noiseLabels {
		if c.noiseLabels[i].node == v {
			return &c.noiseLabels[i].label
		}
	}
	return nil
}
