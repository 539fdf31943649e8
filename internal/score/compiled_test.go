package score

import (
	"testing"

	"cloudeval/internal/dataset"
	"cloudeval/internal/engine"
	"cloudeval/internal/inference"
	"cloudeval/internal/llm"
	"cloudeval/internal/unittest"
	"cloudeval/internal/yamlmatch"
)

// literal is p as a Problem literal: the same fields and no compiled
// state.
func literal(p dataset.Problem) dataset.Problem {
	return dataset.Problem{
		ID: p.ID, Category: p.Category, Subcategory: p.Subcategory, Variant: p.Variant,
		Question: p.Question, ContextYAML: p.ContextYAML, ReferenceYAML: p.ReferenceYAML,
		UnitTest: p.UnitTest, Source: p.Source,
	}
}

// observation is everything a campaign derives from one problem: the
// unit-test results and six scores of a few answers (the scores through
// eng, whose results are keyed by the unit test's digest), the
// generation key and two models' generations.
type observation struct {
	runs   [3]unittest.Result
	scores [3][6]uint64
	key    inference.Key
	gens   [2]string
}

func observe(eng *engine.Engine, p dataset.Problem, answers [3]string) observation {
	var o observation
	for i, a := range answers {
		o.runs[i] = unittest.Run(p, a)
		o.scores[i] = sixBits(NewEvaluator(eng, nil).Score(p, a))
	}
	o.key = inference.Request{Model: "gpt-4", Problem: p}.Key()
	for i, name := range []string{"gpt-4", "llama-2-7b-chat"} {
		m, _ := llm.ByName(name)
		o.gens[i] = m.Generate(p, llm.GenOptions{})
	}
	return o
}

// TestEditedCopiesComputeFresh: a copy of a corpus problem whose unit
// test, reference or question was edited derives everything exactly as
// a fresh literal with those fields does, although its original's
// artefacts were all made (and its results cached in eng) first. The
// original is unharmed afterwards.
func TestEditedCopiesComputeFresh(t *testing.T) {
	corpus := fullCorpus()
	orig, other := corpus[0], corpus[len(corpus)-3]
	answers := [3]string{"", yamlmatch.StripLabels(orig.ReferenceYAML), yamlmatch.StripLabels(other.ReferenceYAML)}
	eng := engine.New()
	want := observe(engine.New(), literal(orig), answers)
	for _, edit := range []struct {
		name string
		edit func(*dataset.Problem)
	}{
		{"unit test", func(p *dataset.Problem) { p.UnitTest = "echo unit_test_passed" }},
		{"reference", func(p *dataset.Problem) { p.ReferenceYAML = other.ReferenceYAML }},
		{"question", func(p *dataset.Problem) { p.Question = other.Question }},
	} {
		if got := observe(eng, orig, answers); got != want {
			t.Fatalf("before the %s edit: the corpus problem derives what a literal does not", edit.name)
		}
		edited := orig
		edit.edit(&edited)
		got, fresh := observe(eng, edited, answers), observe(engine.New(), literal(edited), answers)
		if got != fresh {
			t.Errorf("%s edited: the copy derives what a fresh literal does not", edit.name)
		}
		if got == want {
			t.Errorf("%s edited: the copy derives what its original does", edit.name)
		}
	}
	if got := observe(eng, orig, answers); got != want {
		t.Error("after the edits: the corpus problem derives what a literal does not")
	}
}

// TestCorporaShareCompiledReferences: every paper benchmark's corpus is
// augment.ExpandCorpus(dataset.Generate()); two of them hold the same
// compiled references, and a problem's variants hold its original's.
func TestCorporaShareCompiledReferences(t *testing.T) {
	a, b := fullCorpus(), fullCorpus()
	for i := range a {
		if refFor(a[i]) != refFor(b[i]) {
			t.Fatalf("%s: two corpora compiled the reference twice", a[i].ID)
		}
		if orig := a[i-i%3]; refFor(a[i]) != refFor(orig) {
			t.Fatalf("%s: the variant compiled its original's reference again", a[i].ID)
		}
	}
}
