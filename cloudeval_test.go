package cloudeval_test

import (
	"strings"
	"testing"

	"cloudeval"
)

func TestPublicAPIQuickstart(t *testing.T) {
	problems := cloudeval.Dataset()
	if len(problems) != 377 { // 337 paper problems + compose + helm
		t.Fatalf("dataset = %d problems", len(problems))
	}
	models := cloudeval.Models()
	if len(models) != 12 {
		t.Fatalf("zoo = %d models", len(models))
	}

	p := problems[0]
	ref := cloudeval.CleanReference(p)
	res := cloudeval.RunUnitTest(p, ref)
	if !res.Passed {
		t.Fatalf("reference answer failed:\n%s", res.Output)
	}
	if cloudeval.RunUnitTest(p, "not: yaml: at: all").Passed {
		t.Fatal("broken answer passed")
	}

	s := cloudeval.ScoreAnswer(p, ref)
	if s.UnitTest != 1 || s.KVWildcard != 1 {
		t.Fatalf("reference scores: %+v", s)
	}

	clean := cloudeval.Postprocess("Here is the YAML:\n```yaml\nkind: Pod\napiVersion: v1\nmetadata:\n  name: x\n```\n")
	if strings.Contains(clean, "```") || !strings.Contains(clean, "kind: Pod") {
		t.Fatalf("postprocess: %q", clean)
	}
}

func TestBenchmarkFacadeExperiments(t *testing.T) {
	b := cloudeval.New()
	if len(b.Problems) != 3*377 {
		t.Fatalf("full corpus = %d", len(b.Problems))
	}
	// The cheap tables render without running the model zoo.
	for _, out := range []string{b.Table1(), b.Table2(), b.Table7(), b.Table8()} {
		if strings.TrimSpace(out) == "" {
			t.Fatal("empty experiment output")
		}
	}
}

// TestBenchmarksShareNoEvaluator: each cloudeval.New builds its own
// engine and dispatcher, so one benchmark's caches and error counters
// never show up in another's.
func TestBenchmarksShareNoEvaluator(t *testing.T) {
	a, b := cloudeval.New().Evaluator(), cloudeval.New().Evaluator()
	if a.Engine() == b.Engine() {
		t.Error("two benchmarks share an engine")
	}
	if a.Dispatcher() == b.Dispatcher() {
		t.Error("two benchmarks share a dispatcher")
	}
}
