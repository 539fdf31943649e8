package main

import (
	"math/rand"

	"cloudeval/client"
	"cloudeval/internal/augment"
	"cloudeval/internal/dataset"
	"cloudeval/internal/engine"
	"cloudeval/internal/inference"
	"cloudeval/internal/llm"
)

// corpus is the Table 4 input: the twelve-model zoo and the full
// augmented problem set. The seed only decides the order the problems
// (and everything derived from them) are presented in; the program
// under test never sees the seed.
type corpus struct {
	models   []llm.Model
	problems []dataset.Problem
	pairs    []pair
}

// pair is one op of the Table 4 matrix: models[model] answering
// problems[problem].
type pair struct{ model, problem int }

func newCorpus(seed int64) *corpus {
	problems := augment.ExpandCorpus(dataset.Generate())
	rand.New(rand.NewSource(seed)).Shuffle(len(problems), func(i, j int) {
		problems[i], problems[j] = problems[j], problems[i]
	})
	c := &corpus{models: llm.Models, problems: problems}
	// Model-major, like score.BenchmarkVia flattens the matrix:
	// English-only APIs skip translated questions.
	for mi, m := range c.models {
		for pi, p := range problems {
			if m.EnglishOnly && p.Variant == dataset.Translated {
				continue
			}
			c.pairs = append(c.pairs, pair{mi, pi})
		}
	}
	return c
}

// answers generates and post-processes the zoo's answer to every pair,
// in pair order, on a throwaway dispatcher and engine.
func (c *corpus) answers() []string {
	disp := inference.NewDispatcher(inference.NewSim(c.models))
	out := make([]string, len(c.pairs))
	engine.New().ForEach(len(c.pairs), func(i int) {
		pr := c.pairs[i]
		out[i] = disp.Answer(c.models[pr.model], c.problems[pr.problem], llm.GenOptions{})
	})
	return out
}

// execution is one distinct unit-test execution of a Table 4 campaign:
// the engine memoises on (unit-test script, answer), so these are what
// a cold campaign actually runs.
type execution struct {
	problem dataset.Problem
	answer  string
}

// distinctExecutions dedupes the matrix on (script, answer) and orders
// the survivors by the seed.
func (c *corpus) distinctExecutions(answers []string, seed int64) []execution {
	type key struct{ test, answer string }
	seen := make(map[key]struct{}, len(c.pairs))
	var out []execution
	for i, pr := range c.pairs {
		p := c.problems[pr.problem]
		k := key{p.UnitTest, answers[i]}
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, execution{problem: p, answer: answers[i]})
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// modelShare is the share of the request trace sent as `model`
// (generated by the daemon); the rest carry a literal `answer`.
const modelShare = 0.20

// request is one POST /v1/eval of the trace and the pair it came from.
type request struct {
	pair int
	body client.EvalRequest
}

// requestTrace is the Table 4 matrix once, in seeded order. Pairs whose
// zoo answer post-processes to nothing cannot be sent as a literal
// answer (the API rejects an empty one), so they go as `model`; seeded
// picks among the others fill the model share up to exactly
// modelShare, which keeps the work of a trace the same for every seed.
func (c *corpus) requestTrace(answers []string, seed int64) []request {
	rng := rand.New(rand.NewSource(seed))
	n := len(c.pairs)
	asModel := make([]bool, n)
	models := 0
	for i, a := range answers {
		if a == "" {
			asModel[i] = true
			models++
		}
	}
	want := int(modelShare*float64(n) + 0.5)
	for _, i := range rng.Perm(n) {
		if models >= want {
			break
		}
		if !asModel[i] {
			asModel[i] = true
			models++
		}
	}
	out := make([]request, 0, n)
	for _, i := range rng.Perm(n) {
		pr := c.pairs[i]
		body := client.EvalRequest{Problem: c.problems[pr.problem].ID}
		if asModel[i] {
			body.Model = c.models[pr.model].Name
		} else {
			body.Answer = answers[i]
		}
		out = append(out, request{pair: i, body: body})
	}
	return out
}
