package llm

import (
	"math/rand"
	"strings"

	"cloudeval/internal/yamlmatch"
	"cloudeval/internal/yamlx"
)

// The corruptors as they were before they edited copy-on-write and
// rendered through a template: deep-clone the compiled documents,
// mutate the clone in place, marshal all of it. Kept, code unchanged,
// as what TestCorruptorsMatchCloneOracle holds the new ones to.

func cloneDocs(docs []*yamlx.Node) []*yamlx.Node {
	out := make([]*yamlx.Node, len(docs))
	for i, d := range docs {
		out[i] = d.Clone()
	}
	return out
}

// oracleWrongKind swaps the resource kind for a plausible but wrong one.
func oracleWrongKind(c *genContext, rng *rand.Rand) string {
	alternatives := []string{"Pod", "Deployment", "Service", "ConfigMap", "ReplicaSet"}
	var doc *yamlx.Node // the first document that is not null, as yamlx.Parse picks it
	for _, d := range c.docs {
		if d != nil && d.Kind != yamlx.NullKind {
			doc = d
			break
		}
	}
	if doc == nil || doc.Kind != yamlx.MapKind {
		return c.clean
	}
	doc = doc.Clone() // the compiled tree is shared; mutate a copy
	cur := doc.Get("kind").ScalarString()
	alt := alternatives[rng.Intn(len(alternatives))]
	for alt == cur {
		alt = alternatives[rng.Intn(len(alternatives))]
	}
	doc.Set("kind", yamlx.String(alt))
	return yamlx.MarshalString(doc)
}

// oracleCorruptYAML perturbs functional leaves of the reference: numeric
// values drift, strings get mangled, or a required subtree is dropped.
// The result stays valid YAML with the right kind but fails the unit
// test: corruption is biased toward leaves whose values the unit-test
// script actually asserts on, which is what "plausible but wrong"
// answers get wrong in practice.
func oracleCorruptYAML(c *genContext, rng *rand.Rand) string {
	if len(c.docs) == 0 {
		return c.clean
	}
	docs := cloneDocs(c.docs) // the compiled trees are shared; mutate copies
	// Corrupt most tested leaves (at least one), then a random leaf or
	// two for texture.
	mutated := 0
	for i, path := range c.tested {
		if i > 0 && rng.Float64() > 0.8 {
			continue
		}
		oracleMutateLeaf(docs, path, rng)
		mutated++
	}
	if mutated == 0 {
		// Nothing observable found: break the document structurally by
		// dropping the spec subtree of the first document.
		if len(docs) > 0 && docs[0].Kind == yamlx.MapKind {
			docs[0].Delete("spec")
			docs[0].Delete("data")
			docs[0].Delete("subjects")
		}
	}
	edits := 1 + rng.Intn(2)
	for i := 0; i < edits; i++ {
		doc := docs[rng.Intn(len(docs))]
		oracleCorruptNode(doc, rng, 0)
	}
	return string(yamlx.MarshalAll(docs))
}

func oracleCorruptNode(n *yamlx.Node, rng *rand.Rand, depth int) bool {
	if n == nil {
		return false
	}
	switch n.Kind {
	case yamlx.MapKind:
		if len(n.Entries) == 0 {
			return false
		}
		idx := rng.Intn(len(n.Entries))
		e := &n.Entries[idx]
		// Never corrupt kind/apiVersion here (that is category 4's job).
		if e.Key == "kind" || e.Key == "apiVersion" {
			idx = (idx + 1) % len(n.Entries)
			e = &n.Entries[idx]
			if e.Key == "kind" || e.Key == "apiVersion" {
				return false
			}
		}
		if e.Value.IsScalar() {
			e.Value = oracleMutateScalar(e.Value, rng)
			return true
		}
		if depth >= 2 && rng.Float64() < 0.25 {
			// Drop an entire subtree.
			n.Entries = append(n.Entries[:idx], n.Entries[idx+1:]...)
			return true
		}
		return oracleCorruptNode(e.Value, rng, depth+1)
	case yamlx.SeqKind:
		if len(n.Items) == 0 {
			return false
		}
		idx := rng.Intn(len(n.Items))
		if n.Items[idx].IsScalar() {
			n.Items[idx] = oracleMutateScalar(n.Items[idx], rng)
			return true
		}
		return oracleCorruptNode(n.Items[idx], rng, depth+1)
	default:
		return false
	}
}

func oracleMutateScalar(v *yamlx.Node, rng *rand.Rand) *yamlx.Node {
	switch v.Kind {
	case yamlx.IntKind:
		delta := int64(1 + rng.Intn(9))
		if rng.Intn(2) == 0 && v.Int > delta {
			return yamlx.Integer(v.Int - delta)
		}
		return yamlx.Integer(v.Int + delta)
	case yamlx.BoolKind:
		return yamlx.Boolean(!v.Bool)
	case yamlx.StringKind:
		s := v.Str
		// Mangle the middle so substring assertions fail too.
		if len(s) > 3 {
			mid := 1 + rng.Intn(len(s)-2)
			c := byte('x')
			if s[mid] == 'x' {
				c = 'q'
			}
			return yamlx.String(s[:mid] + string(c) + s[mid+1:])
		}
		return yamlx.String(s + "x")
	default:
		return yamlx.String("changed")
	}
}

// oracleHarmlessNoise rewrites the reference without changing semantics the
// unit test observes: map keys reorder, wildcard-labeled names change,
// set-labeled values pick another allowed member. Text metrics drop;
// KV-wildcard and unit tests stay at 1.
func oracleHarmlessNoise(c *genContext, rng *rand.Rand) string {
	if c.labeled == nil {
		return c.clean
	}
	labeled := cloneDocs(c.labeled) // the compiled trees are shared; mutate copies
	for _, doc := range labeled {
		oracleApplyHarmless(doc, rng)
	}
	out := yamlmatch.StripLabels(string(yamlx.MarshalAll(labeled)))
	if strings.TrimSpace(out) == strings.TrimSpace(c.clean) {
		// Noise is supposed to be visible: rotate the trailing top-level
		// entries of the first document (YAML-legal, semantics intact).
		doc := labeled[0]
		if doc.Kind == yamlx.MapKind && len(doc.Entries) >= 3 {
			tail := doc.Entries[1:]
			rotated := append([]yamlx.Entry{tail[len(tail)-1]}, tail[:len(tail)-1]...)
			doc.Entries = append(doc.Entries[:1], rotated...)
			out = yamlmatch.StripLabels(string(yamlx.MarshalAll(labeled)))
		}
	}
	return out
}

func oracleApplyHarmless(n *yamlx.Node, rng *rand.Rand) {
	if n == nil {
		return
	}
	switch n.Kind {
	case yamlx.MapKind:
		// Shuffle top-level-entry order occasionally (YAML-legal).
		if len(n.Entries) > 1 && rng.Float64() < 0.4 {
			i, j := rng.Intn(len(n.Entries)), rng.Intn(len(n.Entries))
			if n.Entries[i].Key != "apiVersion" && n.Entries[j].Key != "apiVersion" {
				n.Entries[i], n.Entries[j] = n.Entries[j], n.Entries[i]
			}
		}
		for _, e := range n.Entries {
			if e.Value.IsScalar() {
				label := yamlmatch.ParseLabel(e.Value.Comment)
				switch label.Kind {
				case yamlmatch.WildcardLabel:
					if rng.Float64() < 0.85 {
						e.Value.Str = "alt-" + e.Value.ScalarString()
						e.Value.Kind = yamlx.StringKind
					}
				case yamlmatch.SetLabel:
					if len(label.Values) > 0 && rng.Float64() < 0.85 {
						pickVal := label.Values[rng.Intn(len(label.Values))]
						e.Value.Str = pickVal
						e.Value.Kind = yamlx.StringKind
					}
				}
				e.Value.Comment = ""
			} else {
				oracleApplyHarmless(e.Value, rng)
			}
		}
	case yamlx.SeqKind:
		for _, it := range n.Items {
			oracleApplyHarmless(it, rng)
		}
	}
}

// oracleMutateLeaf replaces the scalar at path in docs with a mutated one.
func oracleMutateLeaf(docs []*yamlx.Node, path []int, rng *rand.Rand) {
	n := docs[path[0]]
	for _, pos := range path[1 : len(path)-1] {
		n = child(n, pos)
	}
	last := path[len(path)-1]
	if n.Kind == yamlx.MapKind {
		n.Entries[last].Value = oracleMutateScalar(n.Entries[last].Value, rng)
	} else {
		n.Items[last] = oracleMutateScalar(n.Items[last], rng)
	}
}
