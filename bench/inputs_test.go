package main

import (
	"encoding/json"
	"reflect"
	"sort"
	"testing"
)

// inputsOf renders everything a seed decides as bytes.
func inputsOf(t *testing.T, seed int64) (problems, execs, trace []string) {
	t.Helper()
	c := newCorpus(seed)
	for _, p := range c.problems {
		problems = append(problems, p.ID)
	}
	answers := c.answers()
	for _, ex := range c.distinctExecutions(answers, seed) {
		execs = append(execs, ex.problem.UnitTest+"\x00"+ex.answer)
	}
	for _, rq := range c.requestTrace(answers, seed) {
		b, err := json.Marshal(rq.body)
		if err != nil {
			t.Fatal(err)
		}
		trace = append(trace, string(b))
	}
	return problems, execs, trace
}

func sorted(xs []string) []string {
	s := append([]string(nil), xs...)
	sort.Strings(s)
	return s
}

func TestSeedOnlyOrdersTheInputs(t *testing.T) {
	p1, e1, t1 := inputsOf(t, 1)
	p1b, e1b, t1b := inputsOf(t, 1)
	p2, e2, t2 := inputsOf(t, 2)
	for _, c := range []struct {
		name            string
		a, again, other []string
		sameMultiset    bool
	}{
		{"problem order", p1, p1b, p2, true},
		{"distinct executions", e1, e1b, e2, true},
		// Which pairs go as `model` is seeded too, so only the size and
		// the model share of the trace are the same across seeds.
		{"request trace", t1, t1b, t2, false},
	} {
		if !reflect.DeepEqual(c.a, c.again) {
			t.Errorf("%s: the same seed gave different bytes", c.name)
		}
		if reflect.DeepEqual(c.a, c.other) {
			t.Errorf("%s: another seed gave the same order", c.name)
		}
		if len(c.a) != len(c.other) {
			t.Errorf("%s: %d inputs under one seed, %d under another", c.name, len(c.a), len(c.other))
		}
		if c.sameMultiset && !reflect.DeepEqual(sorted(c.a), sorted(c.other)) {
			t.Errorf("%s: another seed changed the inputs, not only their order", c.name)
		}
	}
}

func TestRequestTraceShape(t *testing.T) {
	c := newCorpus(7)
	answers := c.answers()
	trace := c.requestTrace(answers, 7)
	if len(trace) != len(c.pairs) {
		t.Fatalf("trace has %d requests, want one per pair (%d)", len(trace), len(c.pairs))
	}
	seen := make([]bool, len(c.pairs))
	models := 0
	for _, rq := range trace {
		if seen[rq.pair] {
			t.Fatalf("pair %d sent twice", rq.pair)
		}
		seen[rq.pair] = true
		if (rq.body.Answer == "") == (rq.body.Model == "") {
			t.Fatalf("request for pair %d must carry exactly one of answer and model: %+v", rq.pair, rq.body)
		}
		if rq.body.Model != "" {
			models++
		} else if rq.body.Answer != answers[rq.pair] {
			t.Fatalf("pair %d carries another pair's answer", rq.pair)
		}
	}
	if want := int(modelShare*float64(len(trace)) + 0.5); models != want {
		t.Errorf("%d model requests, want %d", models, want)
	}
}
