package core

import (
	"path/filepath"
	"strings"
	"testing"

	"cloudeval/internal/dataset"
	"cloudeval/internal/engine"
	"cloudeval/internal/inference"
	"cloudeval/internal/llm"
	"cloudeval/internal/score"
	"cloudeval/internal/store"
)

// paperBench builds the paper's benchmark, the full corpus and the
// twelve-model zoo, on an evaluator of its own.
func paperBench() *Benchmark {
	ev := score.NewEvaluator(engine.New(), inference.NewDispatcher(inference.NewSim(llm.Models)))
	return New(ev, dataset.Generate(), llm.Models)
}

func TestNewBenchmarkShape(t *testing.T) {
	b := paperBench()
	if len(b.Originals) != dataset.TotalOriginal {
		t.Errorf("originals = %d", len(b.Originals))
	}
	if want := 3 * dataset.TotalOriginal; len(b.Problems) != want {
		t.Errorf("problems = %d, want %d", len(b.Problems), want)
	}
	if len(b.Models) != 12 {
		t.Errorf("models = %d, want 12", len(b.Models))
	}
	names := b.ModelNames()
	if names[0] != "gpt-4" {
		t.Errorf("first model = %s", names[0])
	}
}

// TestBenchmarksShareOneCompiledCorpus: two benchmarks, as two daemons
// build them, hold the same problems — compiled state included, which
// == compares — so nothing compiled for one is compiled again for the
// other.
func TestBenchmarksShareOneCompiledCorpus(t *testing.T) {
	a, b := paperBench(), paperBench()
	for i := range a.Problems {
		if a.Problems[i] != b.Problems[i] {
			t.Fatalf("%s: the second benchmark compiled its own", a.Problems[i].ID)
		}
	}
}

// TestExtensionFamiliesFlowThroughPipelines pins the acceptance path
// for the extension families: compose and helm problems run through
// ZeroShot (with augmented variants), pass@k sampling, the persistent
// store, and the per-family leaderboard rows.
func TestExtensionFamiliesFlowThroughPipelines(t *testing.T) {
	var subset []dataset.Problem
	for _, p := range dataset.Generate() {
		if (p.Subcategory == "compose" || p.Subcategory == "helm") && len(subset) < 6 {
			subset = append(subset, p)
		}
	}
	if len(subset) != 6 {
		t.Fatalf("expected 6 extension problems, got %d", len(subset))
	}
	st, err := store.Open(filepath.Join(t.TempDir(), "evals.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	eng := engine.New(engine.WithStore(st))
	models := llm.Models[:2]
	gen := inference.NewDispatcher(inference.NewSim(models))
	b := New(score.NewEvaluator(eng, gen), subset, models)

	// ZeroShot covers every variant of every extension problem.
	_, raw := b.ZeroShot()
	scores := raw[b.Models[0].Name]
	if len(scores) != 3*len(subset) {
		t.Fatalf("zero-shot scored %d problems, want %d", len(scores), 3*len(subset))
	}

	// The store captured the executed evaluations.
	if st.Len() == 0 {
		t.Error("store recorded no extension-family evaluations")
	}

	// pass@k sampling runs the same families through the engine.
	passes := b.Evaluator().PassAtK(b.Models[0], subset, 2, 0.75)
	if len(passes) != 2 || passes[1] < passes[0] {
		t.Errorf("pass@k shape broken: %v", passes)
	}

	// The family leaderboard renders nonzero rows for the new families
	// (gpt-4 passes a decent share of these short problems).
	out := b.FamilyLeaderboard()
	if !strings.Contains(out, "compose") || !strings.Contains(out, "helm") {
		t.Fatalf("family leaderboard missing extension columns:\n%s", out)
	}
}

// TestExperimentRegistryComplete: the one experiment table lists each
// ID once, each with a renderer, and ExperimentIDs is its order.
func TestExperimentRegistryComplete(t *testing.T) {
	if len(ExperimentIDs) != len(experiments) {
		t.Fatalf("ExperimentIDs lists %d, the table %d", len(ExperimentIDs), len(experiments))
	}
	seen := map[string]bool{}
	for i, e := range experiments {
		if seen[e.id] {
			t.Errorf("experiment %q listed twice", e.id)
		}
		seen[e.id] = true
		if e.render == nil {
			t.Errorf("experiment %q has no renderer", e.id)
		}
		if ExperimentIDs[i] != e.id {
			t.Errorf("ExperimentIDs[%d] = %q, the table says %q", i, ExperimentIDs[i], e.id)
		}
	}
}

func TestCheapExperimentsProduceOutput(t *testing.T) {
	b := paperBench()
	for _, id := range []string{"table1", "table2", "table7", "table8"} {
		out, err := b.Experiment(id)
		if err != nil || strings.TrimSpace(out) == "" {
			t.Errorf("%s produced no output (err %v)", id, err)
		}
	}
}

func TestZeroShotCached(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark in -short mode")
	}
	b := paperBench()
	rows1, raw1 := b.ZeroShot()
	rows2, raw2 := b.ZeroShot()
	if &rows1[0] != &rows2[0] {
		t.Error("ZeroShot should cache its result")
	}
	if len(raw1) != 12 || len(raw2) != 12 {
		t.Errorf("raw scores for %d models", len(raw1))
	}
	// Table 4 and Table 9 render from the cache.
	if !strings.Contains(b.Table4(), "gpt-4") {
		t.Error("Table 4 missing gpt-4")
	}
	if !strings.Contains(b.Table9(), "gpt-4") {
		t.Error("Table 9 missing gpt-4")
	}
	if !strings.Contains(b.Figure6(), "application_category") {
		t.Error("Figure 6 missing perspectives")
	}
}

func TestFigure7Output(t *testing.T) {
	if testing.Short() {
		t.Skip("model evaluation in -short mode")
	}
	b := paperBench()
	out := b.Figure7()
	for _, m := range Figure7Models {
		if !strings.Contains(out, m) {
			t.Errorf("Figure 7 missing %s:\n%s", m, out)
		}
	}
}

func TestFigure5Output(t *testing.T) {
	b := paperBench()
	out := b.Figure5()
	if !strings.Contains(out, "64") || !strings.Contains(out, "Workers") {
		t.Errorf("Figure 5 output:\n%s", out)
	}
}
