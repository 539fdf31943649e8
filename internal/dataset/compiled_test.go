package dataset

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fresh builds a new artefact on every call, so two slots hold the same
// one only if one problem's build was kept and served to the other.
func fresh(Problem) *int { return new(int) }

func simplify(p Problem) Problem {
	p.ID += "-s"
	p.Variant = Simplified
	p.Question = "In short: " + p.Question
	return p
}

// compiledCorpus is a corpus with compiled state nothing has touched.
func compiledCorpus() []Problem {
	ps := generate()
	for i := range ps {
		ps[i].c = &compiled{src: ps[i], body: &body{bodyKey: ps[i].bodyKey()}}
	}
	return ps
}

// TestVariantSharesBodyNotQuestion: a derived variant reads its
// original's body slots and has question slots of its own; deriving it
// again hands out the same variant. A variant whose build changed a
// body field computes its body artefacts afresh, and an edited copy
// keeps nothing.
func TestVariantSharesBodyNotQuestion(t *testing.T) {
	p := compiledCorpus()[0]
	v := p.Derive(Simplified, simplify)
	if v.ID != p.ID+"-s" || v.c == nil {
		t.Fatalf("derived %q with state %v", v.ID, v.c != nil)
	}
	if Memo(v, TestDigest, fresh) != Memo(p, TestDigest, fresh) {
		t.Error("the variant compiled its own body")
	}
	if q := Memo(v, Prompt, fresh); q != Memo(v, Prompt, fresh) || q == Memo(p, Prompt, fresh) {
		t.Error("the variant has no question half of its own")
	}
	if again := p.Derive(Simplified, simplify); again != v {
		t.Error("a second Derive made the variant again")
	}

	rewritten := p.Derive(Translated, func(q Problem) Problem {
		q.ReferenceYAML += "# edited\n"
		return q
	})
	if Memo(rewritten, TestDigest, fresh) == Memo(p, TestDigest, fresh) {
		t.Error("a variant with another reference reads its original's body")
	}

	edited := p
	edited.Question = "edited"
	if d := edited.Derive(Simplified, simplify); d.c != nil || d.Question != "In short: edited" {
		t.Errorf("an edited copy derived %q with state %v", d.Question, d.c != nil)
	}
	if Memo(edited, Prompt+1, fresh) == Memo(edited, Prompt+1, fresh) {
		t.Error("an edited copy kept an artefact")
	}
}

// TestFirstTouchRace: eight goroutines touch a compiled corpus nothing
// has touched, all at once — body and question slots of every problem,
// its line count and its variant's slots. Each slot and variant is
// built exactly once, and every goroutine reads that one artefact.
// The first problem's builds sleep, so the goroutines that find its
// slots empty arrive while the first build runs. The reference's build
// reads the line count, a slot of the same problem, as builders do.
// Run under -race in CI.
func TestFirstTouchRace(t *testing.T) {
	ps := compiledCorpus()
	type seen struct {
		body, prompt, variantBody, variantPrompt *int
		lines                                    int
		variant                                  Problem
	}
	// builds counts, per problem, the builds of its variant, its body
	// slot (shared with the variant), its line count and the two
	// question slots.
	type builds struct{ variant, body, lines, prompt, variantPrompt atomic.Int32 }
	counts := make([]builds, len(ps))
	counted := func(i int, n *atomic.Int32) {
		n.Add(1)
		if i == 0 {
			time.Sleep(5 * time.Millisecond)
		}
	}
	const goroutines = 8
	got := make([][]seen, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			out := make([]seen, len(ps))
			for i, p := range ps {
				c := &counts[i]
				lines := func(q Problem) int {
					return Memo(q, solutionLines, func(q Problem) int { counted(i, &c.lines); return nonBlankLines(q.ReferenceYAML) })
				}
				v := p.Derive(Simplified, func(q Problem) Problem { counted(i, &c.variant); return simplify(q) })
				out[i] = seen{
					Memo(p, Reference, func(q Problem) *int { counted(i, &c.body); lines(q); return new(int) }),
					Memo(p, Prompt+maxShots, func(Problem) *int { counted(i, &c.prompt); return new(int) }),
					Memo(v, Reference, func(Problem) *int { counted(i, &c.body); return new(int) }),
					Memo(v, Prompt+maxShots, func(Problem) *int { counted(i, &c.variantPrompt); return new(int) }),
					lines(p), v,
				}
			}
			got[g] = out
		}(g)
	}
	close(start)
	wg.Wait()
	for i, p := range ps {
		c := &counts[i]
		for _, n := range []struct {
			slot string
			n    *atomic.Int32
		}{{"variant", &c.variant}, {"body", &c.body}, {"lines", &c.lines}, {"prompt", &c.prompt}, {"variant's prompt", &c.variantPrompt}} {
			if b := n.n.Load(); b != 1 {
				t.Errorf("%s: %s built %d times, want once", p.ID, n.slot, b)
			}
		}
		want := got[0][i]
		if want.body != want.variantBody || want.prompt == want.variantPrompt || want.lines != nonBlankLines(p.ReferenceYAML) {
			t.Fatalf("%s: body %p, variant's %p; prompt %p, variant's %p; %d lines",
				p.ID, want.body, want.variantBody, want.prompt, want.variantPrompt, want.lines)
		}
		for g := 1; g < goroutines; g++ {
			if got[g][i] != want {
				t.Fatalf("%s: goroutine %d read other artefacts than goroutine 0", p.ID, g)
			}
		}
	}
}
