package score

import (
	"math"
	"strings"
	"testing"

	"cloudeval/internal/augment"
	"cloudeval/internal/dataset"
	"cloudeval/internal/engine"
	"cloudeval/internal/inference"
	"cloudeval/internal/llm"
	"cloudeval/internal/yamlmatch"
)

// The package's tests share one evaluator over the whole zoo, so the
// full-corpus campaigns after the first are cache hits.
var testEv = NewEvaluator(engine.New(), inference.NewDispatcher(inference.NewSim(llm.Models)))

func fullCorpus() []dataset.Problem {
	return augment.ExpandCorpus(dataset.Generate())
}

func TestScoreAnswerPerfect(t *testing.T) {
	p := dataset.Generate()[0]
	clean := yamlmatch.StripLabels(p.ReferenceYAML)
	s := testEv.Score(p, clean)
	if s.UnitTest != 1 {
		t.Errorf("reference unit test = %v", s.UnitTest)
	}
	if s.KVWildcard != 1 {
		t.Errorf("reference KV wildcard = %v", s.KVWildcard)
	}
	if s.BLEU < 0.95 {
		t.Errorf("reference BLEU = %v", s.BLEU)
	}
	if s.ExactMatch != 1 || s.EditDist != 1 || s.KVExact != 1 {
		t.Errorf("reference text scores: %+v", s)
	}
}

func TestScoreAnswerGarbage(t *testing.T) {
	p := dataset.Generate()[0]
	s := testEv.Score(p, "completely unrelated text that is not yaml at all")
	if s.UnitTest != 0 || s.KVWildcard > 0.2 || s.ExactMatch != 0 {
		t.Errorf("garbage scores too high: %+v", s)
	}
}

func TestMetricAccessors(t *testing.T) {
	s := ProblemScore{BLEU: 1, EditDist: 2, ExactMatch: 3, KVExact: 4, KVWildcard: 5, UnitTest: 6}
	for i, name := range Metrics {
		if got := s.Metric(name); got != float64(i+1) {
			t.Errorf("Metric(%q) = %v, want %d", name, got, i+1)
		}
	}
}

// TestTable4Calibration runs the full zero-shot benchmark (12 models ×
// 1011 problems) and checks the paper's headline shape: the ranking
// order, the proprietary/open-source gap, and rough magnitudes.
func TestTable4Calibration(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark in -short mode")
	}
	rows, _ := testEv.Benchmark(llm.Models, fullCorpus())
	byName := map[string]ModelAggregate{}
	for _, r := range rows {
		byName[r.Model] = r
	}

	paper := map[string]float64{
		"gpt-4":                  0.515,
		"gpt-3.5":                0.412,
		"palm-2-bison":           0.322,
		"llama-2-70b-chat":       0.085,
		"llama-2-13b-chat":       0.067,
		"wizardcoder-34b-v1.0":   0.056,
		"llama-2-7b-chat":        0.027,
		"wizardcoder-15b-v1.0":   0.026,
		"llama-7b":               0.023,
		"llama-13b-lora":         0.021,
		"codellama-7b-instruct":  0.015,
		"codellama-13b-instruct": 0.012,
	}
	for name, want := range paper {
		got := byName[name].UnitTest
		tol := 0.35*want + 0.02
		if math.Abs(got-want) > tol {
			t.Errorf("%s unit test = %.3f, paper %.3f (tolerance %.3f)", name, got, want, tol)
		}
	}

	// Headline orderings.
	if !(byName["gpt-4"].UnitTest > byName["gpt-3.5"].UnitTest &&
		byName["gpt-3.5"].UnitTest > byName["palm-2-bison"].UnitTest) {
		t.Error("proprietary ranking broken")
	}
	bestOpen := 0.0
	for _, r := range rows {
		if r.OpenSource && r.UnitTest > bestOpen {
			bestOpen = r.UnitTest
		}
	}
	if byName["palm-2-bison"].UnitTest <= bestOpen {
		t.Errorf("proprietary models should dominate open source: palm %.3f vs best open %.3f",
			byName["palm-2-bison"].UnitTest, bestOpen)
	}
	// The paper's signature gap: GPT-4 about 6x Llama-2-70B.
	ratio := byName["gpt-4"].UnitTest / byName["llama-2-70b-chat"].UnitTest
	if ratio < 3.5 || ratio > 10 {
		t.Errorf("GPT-4 / Llama-2-70B unit-test ratio = %.2f, paper has ~6.1", ratio)
	}
	// Code models behind general models of smaller size.
	if byName["wizardcoder-34b-v1.0"].UnitTest > byName["llama-2-13b-chat"].UnitTest*1.5 {
		t.Errorf("code models should not lead similar general models: wizard-34b %.3f vs llama-13b %.3f",
			byName["wizardcoder-34b-v1.0"].UnitTest, byName["llama-2-13b-chat"].UnitTest)
	}
	// Metric sanity: BLEU and KV-wildcard track the unit test ordering
	// loosely (top model leads both).
	top := rows[0]
	if top.Model != "gpt-4" {
		t.Errorf("rank 1 = %s, want gpt-4", top.Model)
	}
	for _, r := range rows[1:] {
		if r.BLEU > top.BLEU+0.05 || r.KVWildcard > top.KVWildcard+0.05 {
			t.Errorf("%s beats gpt-4 on text/KV metrics: %+v vs %+v", r.Model, r, top)
		}
	}
}

func TestFormatTable4(t *testing.T) {
	rows := []ModelAggregate{{Model: "gpt-4", Size: "?", UnitTest: 0.5, BLEU: 0.6}}
	out := FormatTable4(rows)
	for _, want := range []string{"Rank", "gpt-4", "0.500", "0.600"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 4 output missing %q:\n%s", want, out)
		}
	}
}

// TestRenamedModelMatchesSerial: the engine path evaluates the model
// it is handed, not whichever zoo entry shares its name. A zoo model
// under a new name scores exactly as the serial oracle does when the
// dispatcher serves it; a dispatcher that lacks it scores empty
// answers and says so in Err.
func TestRenamedModelMatchesSerial(t *testing.T) {
	m, _ := llm.ByName("gpt-4")
	m.Name = "my-gpt-4"
	problems := dataset.Generate()[:20]
	want := EvaluateModelSerial(m, problems, llm.GenOptions{})

	gen := inference.NewDispatcher(inference.NewSim([]llm.Model{m}))
	got := NewEvaluator(engine.New(), gen).Model(m, problems, llm.GenOptions{})
	if err := gen.Err(); err != nil {
		t.Fatalf("dispatcher over the renamed model: %v", err)
	}
	passes := 0
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: engine path %+v, serial %+v", want[i].ProblemID, got[i], want[i])
		}
		passes += int(want[i].UnitTest)
	}
	if passes == 0 {
		t.Fatal("serial oracle passes nothing: the comparison is vacuous")
	}

	lacking := inference.NewDispatcher(inference.NewSim(llm.Models))
	for _, s := range NewEvaluator(engine.New(), lacking).Model(m, problems, llm.GenOptions{}) {
		if s.Answer != "" || s.UnitTest != 0 {
			t.Errorf("%s: scored %+v without a generation", s.ProblemID, s)
		}
	}
	if lacking.Err() == nil {
		t.Error("dispatcher without the model left Err nil")
	}
}
