package yamlx_test

import (
	"math/rand"
	"testing"

	"cloudeval/internal/yamlx"
)

// cowEdit returns n with one seeded edit somewhere below it, made the
// way a Template's users must make theirs: every node from n down to
// the edit is a fresh shallow copy, everything else is shared with n,
// and n itself is not written.
func cowEdit(n *yamlx.Node, rng *rand.Rand) *yamlx.Node {
	replacement := func() *yamlx.Node {
		switch rng.Intn(5) {
		case 0:
			return nil
		case 1:
			return yamlx.Null()
		case 2:
			return yamlx.String("two\nlines\n")
		case 3:
			return yamlx.Integer(int64(rng.Intn(100)))
		}
		return yamlx.String("edited")
	}
	if n == nil || n.Len() == 0 {
		return replacement()
	}
	c := n.ShallowClone()
	i, j := rng.Intn(n.Len()), rng.Intn(n.Len())
	child := func(k int) **yamlx.Node {
		if c.Kind == yamlx.MapKind {
			return &c.Entries[k].Value
		}
		return &c.Items[k]
	}
	switch rng.Intn(8) {
	case 0: // delete
		if c.Kind == yamlx.MapKind {
			c.Entries = append(c.Entries[:i], c.Entries[i+1:]...)
		} else {
			c.Items = append(c.Items[:i], c.Items[i+1:]...)
		}
	case 1: // swap
		if c.Kind == yamlx.MapKind {
			c.Entries[i], c.Entries[j] = c.Entries[j], c.Entries[i]
		} else {
			c.Items[i], c.Items[j] = c.Items[j], c.Items[i]
		}
	case 2:
		*child(i) = replacement()
	case 3: // one level deeper, under a key: another column
		*child(i) = yamlx.Map().Set("wrapped", *child(i))
	case 4: // one level deeper, as an item: another role
		*child(i) = yamlx.Seq(*child(i))
	case 5: // the same subtree twice
		*child(i) = *child(j)
	default:
		*child(i) = cowEdit(*child(i), rng)
	}
	return c
}

// FuzzTemplateMatchesMarshal: for whatever parses, a Template built from
// the documents renders them, and any copy-on-write edit of them, to
// exactly what the plain emitter writes — deleted, swapped and replaced
// children, nil and null, multi-line strings, subtrees that moved to
// another column or changed from entry value to item — and the
// documents it was built from come out of it all unchanged.
func FuzzTemplateMatchesMarshal(f *testing.F) {
	for i, ref := range distinctReferences() {
		f.Add(ref, int64(i))
	}
	for i, s := range []string{
		"", "a: 1\n---\nb: 2\n...\n", "- a\n- b: c\n  d: [1, {e: f}]\n", "k: |\n  line\n   more\n", "- - - a\n",
		"items:\n- script: |\n    echo a\n  name: x # *\n- name: y\n", "a: # c\n- # d\n- x # *\n", "{a: [1, 2], b: {c: d}}", "x # *\n",
	} {
		f.Add(s, int64(i))
	}
	f.Fuzz(func(t *testing.T, src string, seed int64) {
		docs, err := yamlx.ParseAll([]byte(src))
		if err != nil {
			return
		}
		before := string(yamlx.MarshalAll(docs))
		tm := yamlx.NewTemplate(docs)
		if got := string(tm.AppendAll(nil, docs)); got != before {
			t.Fatalf("template renders its own documents as\n%q\nMarshalAll as\n%q", got, before)
		}
		rng := rand.New(rand.NewSource(seed))
		cur := append([]*yamlx.Node(nil), docs...)
		for step := 0; step < 6 && len(cur) > 0; step++ {
			i := rng.Intn(len(cur))
			cur[i] = cowEdit(cur[i], rng)
			if got, want := string(tm.AppendAll([]byte("---\n"), cur)), "---\n"+string(yamlx.MarshalAll(cur)); got != want {
				t.Fatalf("after edit %d (seed %d) template renders\n%q\nMarshalAll\n%q", step, seed, got, want)
			}
			if got, want := string(tm.Append(nil, cur[i])), yamlx.MarshalString(cur[i]); got != want {
				t.Fatalf("after edit %d (seed %d) template renders document %d as\n%q\nMarshal as\n%q", step, seed, i, got, want)
			}
		}
		if got := string(tm.AppendAll(nil, docs)); got != before || string(yamlx.MarshalAll(docs)) != before {
			t.Fatalf("the template's documents changed under the edits: now\n%q\nwere\n%q", got, before)
		}
	})
}
