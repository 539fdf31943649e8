package dataset

import (
	"slices"
	"sync"
	"sync/atomic"
)

// A problem is the benchmark's compilation unit. Every model, sample
// and shot count is scored against the same reference and unit test, so
// what the packages above derive from that text — the unit test's
// digest and program, the reference compiled for scoring and for the
// simulated models, each prompt's digest — is built once and kept on
// the problem instead of being looked up by content on every op.
//
// The state has two halves. The body half is a function of
// ReferenceYAML, UnitTest and Category, which augmentation never
// changes, so a problem's simplified and translated variants share
// their original's. The question half is a function of Question,
// ContextYAML and Category, and every variant has its own.
//
// Problems stay values, and a copy shares its original's state. Each
// half keeps the fields it was compiled from and serves a problem only
// while they are equal (==); for a copy that is a pointer compare. A
// copy whose fields were edited, and a literal that never had state,
// compute afresh and keep nothing.

// Slot names one artefact kept on a problem; see Memo.
type Slot int

// Body slots.
const (
	TestDigest    Slot = iota // engine: SHA-256 of the unit test
	TestProgram               // unittest: the unit test compiled by the shell
	Reference                 // score: the reference compiled for the five text metrics
	Generation                // llm: the reference compiled for the simulated models
	ReferenceKind             // analysis: the kind the reference declares
	solutionLines
	bodySlots
)

// Prompt+k is the question slot of the prompt with k few-shot examples
// (inference: its digest and token count), for 0 <= k <= maxShots, the
// number of prompt.DefaultShots.
const (
	Prompt   Slot = bodySlots
	maxShots      = 3
)

// compiled is a problem's state: the fields of its question half, its
// slots, and the body half it shares.
type compiled struct {
	src      Problem // the fields compiled from; src.c is nil
	question [maxShots + 1]atomic.Value
	body     *body
	// simplified and translated are the variants Derive made.
	simplified, translated atomic.Pointer[Problem]
}

type body struct {
	bodyKey
	slots [bodySlots]atomic.Value
}

// bodyKey is what a body half is a function of.
type bodyKey struct {
	reference, unitTest string
	category            Category
}

func (p *Problem) bodyKey() bodyKey { return bodyKey{p.ReferenceYAML, p.UnitTest, p.Category} }

// slot is where p keeps s: nil when p has no state, or differs from the
// fields s's half was compiled from.
func (p *Problem) slot(s Slot) *atomic.Value {
	c := p.c
	switch {
	case c == nil:
		return nil
	case s < bodySlots:
		if p.bodyKey() != c.body.bodyKey {
			return nil
		}
		return &c.body.slots[s]
	case p.Question != c.src.Question || p.ContextYAML != c.src.ContextYAML || p.Category != c.src.Category || s > Prompt+maxShots:
		return nil
	}
	return &c.question[s-Prompt]
}

// Memo returns the artefact in p's slot s, which build makes from p the
// first time it is asked for. Goroutines racing on an empty slot may
// each build one; all of them return the one stored first. A problem
// with no state for s gets build(p) every time, and nothing is kept.
// V must not be an interface type.
func Memo[V any](p Problem, s Slot, build func(Problem) V) V {
	slot := p.slot(s)
	if slot == nil {
		return build(p)
	}
	if v, ok := slot.Load().(V); ok {
		return v
	}
	slot.CompareAndSwap(nil, build(p))
	return slot.Load().(V)
}

// corpus is the original corpus, compiled once per process: every
// Generate returns copies of it, so every benchmark built from one
// shares one compiled corpus. Problems with equal body fields share a
// body half too — the 377 originals have 312 distinct references, and
// a campaign's text memo meets equal references by that pointer.
var corpus = sync.OnceValue(func() []Problem {
	ps := generate()
	bodies := make(map[bodyKey]*body)
	for i := range ps {
		p := &ps[i]
		b := bodies[p.bodyKey()]
		if b == nil {
			b = &body{bodyKey: p.bodyKey()}
			bodies[b.bodyKey] = b
		}
		p.c = &compiled{src: *p, body: b}
	}
	return ps
})

// Generate returns the full original corpus: the paper's 337 problems
// with the Table 2 category distribution, followed by the Compose and
// Helm extension families — copies of one corpus compiled per process.
func Generate() []Problem { return slices.Clone(corpus()) }

// Derive returns p's augmented variant v, Simplified or Translated,
// which build makes from p. The variant has a question half of its own
// and p's body half, which serves it while build keeps the fields the
// body depends on. A problem with state keeps the variant and hands out
// copies of it from then on, so every expansion of one corpus shares
// one compiled set of variants.
func (p Problem) Derive(v Variant, build func(Problem) Problem) Problem {
	c := p.c
	p.c = nil
	if c == nil || p != c.src {
		return build(p)
	}
	kept := &c.simplified
	if v == Translated {
		kept = &c.translated
	}
	if kept.Load() == nil {
		d := build(p)
		d.c = &compiled{src: d, body: c.body}
		kept.CompareAndSwap(nil, &d)
	}
	return *kept.Load()
}
