// Package yamlmatch implements the YAML-aware scores of CloudEval-YAML
// (§3.2): key-value exact match and key-value wildcard match.
//
// Reference YAML files carry match labels as trailing comments:
//
//	name: kube-registry-proxy   # *                     (wildcard match)
//	image: ubuntu:22.04         # v in ['20.04','22.04'] (conditional)
//	replicas: 3                                          (exact, default)
//
// The wildcard score loads both files into trees, marks reference leaves
// with their label kind, and computes the IoU (intersection over union)
// of matched leaves, per the paper.
package yamlmatch

import (
	"strings"

	"cloudeval/internal/yamlx"
)

// LabelKind describes how a reference leaf is compared.
type LabelKind int

// Label kinds.
const (
	ExactLabel    LabelKind = iota // default: values must be equal
	WildcardLabel                  // "# *": any value matches
	SetLabel                       // "# v in [a, b]": value must be in set
)

// Label is a parsed reference-YAML match label.
type Label struct {
	Kind   LabelKind
	Values []string // SetLabel only: allowed scalar renderings
}

// ParseLabel interprets a trailing comment as a match label. Comments
// that are not labels parse as ExactLabel.
func ParseLabel(comment string) Label {
	c := strings.TrimSpace(comment)
	if c == "*" {
		return Label{Kind: WildcardLabel}
	}
	if rest, ok := strings.CutPrefix(c, "v in "); ok {
		rest = strings.TrimSpace(rest)
		if strings.HasPrefix(rest, "[") {
			if n, err := yamlx.ParseString("vals: " + rest); err == nil {
				vals := n.Get("vals")
				if vals != nil && vals.Kind == yamlx.SeqKind {
					var out []string
					for _, it := range vals.Items {
						out = append(out, it.ScalarString())
					}
					return Label{Kind: SetLabel, Values: out}
				}
			}
		}
	}
	return Label{Kind: ExactLabel}
}

// Match reports whether a generated scalar rendering satisfies the label
// against the reference scalar rendering.
func (l Label) Match(genValue, refValue string) bool {
	switch l.Kind {
	case WildcardLabel:
		return true
	case SetLabel:
		for _, v := range l.Values {
			if genValue == v {
				return true
			}
		}
		return false
	default:
		return genValue == refValue
	}
}

// KVExactMatch loads both YAML texts and reports 1 when they are
// semantically identical (mapping order ignored, labels ignored), 0
// otherwise — including when either side fails to parse.
func KVExactMatch(generated, reference string) float64 {
	g, err := yamlx.ParseAllCached(generated)
	if err != nil {
		return 0
	}
	r, err := yamlx.ParseAllCached(reference)
	if err != nil {
		return 0
	}
	g, r = dropNullDocs(g), dropNullDocs(r)
	if len(g) != len(r) {
		return 0
	}
	for i := range g {
		if !yamlx.Equal(g[i], r[i]) {
			return 0
		}
	}
	return 1
}

func dropNullDocs(docs []*yamlx.Node) []*yamlx.Node {
	var out []*yamlx.Node
	for _, d := range docs {
		if d != nil && d.Kind != yamlx.NullKind {
			out = append(out, d)
		}
	}
	return out
}

// Leaf is a flattened scalar position in a YAML tree.
type Leaf struct {
	Path  string
	Value string
	Label Label
}

// Flatten lists every scalar leaf of a tree with its dotted path.
// Sequence elements use [i] path segments. Empty maps/seqs count as a
// single leaf so structural presence is scored.
func Flatten(n *yamlx.Node) []Leaf {
	var out []Leaf
	flattenInto(n, "", &out)
	return out
}

func flattenInto(n *yamlx.Node, path string, out *[]Leaf) {
	if n == nil {
		return
	}
	switch n.Kind {
	case yamlx.MapKind:
		if len(n.Entries) == 0 {
			*out = append(*out, Leaf{Path: path, Value: "{}", Label: ParseLabel(n.Comment)})
			return
		}
		for _, e := range n.Entries {
			p := e.Key
			if path != "" {
				p = path + "." + e.Key
			}
			flattenInto(e.Value, p, out)
		}
	case yamlx.SeqKind:
		if len(n.Items) == 0 {
			*out = append(*out, Leaf{Path: path, Value: "[]", Label: ParseLabel(n.Comment)})
			return
		}
		for i, it := range n.Items {
			flattenInto(it, path+"["+itoa(i)+"]", out)
		}
	default:
		*out = append(*out, Leaf{Path: path, Value: n.ScalarString(), Label: ParseLabel(n.Comment)})
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [8]byte
	p := len(buf)
	for i > 0 {
		p--
		buf[p] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[p:])
}

// KVWildcardMatch computes the IoU of matched leaves between generated
// and reference YAML, honoring reference labels. It returns 0 when the
// generated text does not parse.
func KVWildcardMatch(generated, reference string) float64 {
	gDocs, err := yamlx.ParseAllCached(generated)
	if err != nil {
		return 0
	}
	rDocs, err := yamlx.ParseAllCached(reference)
	if err != nil {
		return 0
	}
	gDocs, rDocs = dropNullDocs(gDocs), dropNullDocs(rDocs)
	var gen, ref []Leaf
	for i, d := range gDocs {
		prefix := docPrefix(i, len(gDocs))
		for _, l := range Flatten(d) {
			l.Path = prefix + l.Path
			gen = append(gen, l)
		}
	}
	for i, d := range rDocs {
		prefix := docPrefix(i, len(rDocs))
		for _, l := range Flatten(d) {
			l.Path = prefix + l.Path
			ref = append(ref, l)
		}
	}
	return leafIoU(gen, ref)
}

func docPrefix(i, total int) string {
	if total <= 1 {
		return ""
	}
	return "doc[" + itoa(i) + "]."
}

func leafIoU(gen, ref []Leaf) float64 {
	if len(gen) == 0 && len(ref) == 0 {
		return 1
	}
	genByPath := make(map[string][]Leaf, len(gen))
	for _, l := range gen {
		genByPath[l.Path] = append(genByPath[l.Path], l)
	}
	matched := 0
	for _, rl := range ref {
		cands := genByPath[rl.Path]
		for i, gl := range cands {
			if rl.Label.Match(gl.Value, rl.Value) {
				matched++
				// Consume the matched generated leaf.
				genByPath[rl.Path] = append(cands[:i:i], cands[i+1:]...)
				break
			}
		}
	}
	union := len(gen) + len(ref) - matched
	if union == 0 {
		return 1
	}
	return float64(matched) / float64(union)
}

// StripLabels removes label comments ("# *", "# v in [...]") from raw
// reference YAML text, preserving all other formatting, so the cleaned
// text can serve as the target for text-level metrics and as prompt
// context.
func StripLabels(reference string) string {
	if !strings.Contains(reference, "#") {
		return reference // no comment, so no label: every line would be put back as it is
	}
	lines := strings.Split(reference, "\n")
	for i, ln := range lines {
		value, comment := yamlx.SplitTrailingComment(ln)
		if comment == "" {
			continue
		}
		l := ParseLabel(comment)
		if l.Kind != ExactLabel {
			// Re-assemble without the comment, preserving leading space.
			indent := ln[:len(ln)-len(strings.TrimLeft(ln, " "))]
			lines[i] = indent + strings.TrimRight(value, " ")
		}
	}
	return strings.Join(lines, "\n")
}
