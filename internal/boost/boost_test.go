package boost

import (
	"math"
	"math/rand"
	"testing"

	"cloudeval/internal/dataset"
	"cloudeval/internal/engine"
	"cloudeval/internal/inference"
	"cloudeval/internal/llm"
	"cloudeval/internal/score"
)

func TestTrainLearnsThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var rows [][]float64
	var labels []float64
	for i := 0; i < 800; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		y := 0.0
		if x[0] > 0.6 {
			y = 1
		}
		rows = append(rows, x)
		labels = append(labels, y)
	}
	m, err := Train(rows, labels, []string{"a", "b"}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := 0; i < 200; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		want := 0.0
		if x[0] > 0.6 {
			want = 1
		}
		if (m.PredictProba(x) >= 0.5) == (want == 1) {
			correct++
		}
	}
	if correct < 185 {
		t.Errorf("threshold accuracy = %d/200", correct)
	}
}

func TestTrainLearnsInteraction(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var rows [][]float64
	var labels []float64
	for i := 0; i < 1500; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		y := 0.0
		if (x[0] > 0.5) != (x[1] > 0.5) { // XOR-style interaction
			y = 1
		}
		rows = append(rows, x)
		labels = append(labels, y)
	}
	cfg := DefaultConfig()
	cfg.Trees = 120
	m, err := Train(rows, labels, []string{"a", "b"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := 0; i < 400; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		want := 0.0
		if (x[0] > 0.5) != (x[1] > 0.5) {
			want = 1
		}
		if (m.PredictProba(x) >= 0.5) == (want == 1) {
			correct++
		}
	}
	if correct < 340 {
		t.Errorf("XOR accuracy = %d/400; trees cannot be depth-1 stumps", correct)
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, nil, nil, DefaultConfig()); err == nil {
		t.Error("empty training set should error")
	}
	if _, err := Train([][]float64{{1}}, []float64{1}, []string{"a", "b"}, DefaultConfig()); err == nil {
		t.Error("row width mismatch should error")
	}
}

// TestSHAPLocalAccuracy checks the defining Shapley property:
// sum(phi) == Margin(x) - E[Margin].
func TestSHAPLocalAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var rows [][]float64
	var labels []float64
	for i := 0; i < 600; i++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		y := 0.0
		if 0.7*x[0]+0.3*x[2] > 0.5 {
			y = 1
		}
		rows = append(rows, x)
		labels = append(labels, y)
	}
	m, err := Train(rows, labels, []string{"a", "b", "c"}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// E[Margin] with no features present == v(empty set).
	present := make([]bool, 3)
	base := m.Bias
	for _, tr := range m.Trees {
		base += tr.expectedValue(rows[0], present)
	}
	for i := 0; i < 50; i++ {
		x := rows[i]
		phi := m.SHAP(x)
		sum := 0.0
		for _, p := range phi {
			sum += p
		}
		if math.Abs(sum-(m.Margin(x)-base)) > 1e-9 {
			t.Fatalf("local accuracy violated: sum(phi)=%v, margin-base=%v", sum, m.Margin(x)-base)
		}
	}
	// The irrelevant feature b gets near-zero attribution on average.
	imp := m.meanAbsSHAP(rows[:200], engine.New().ForEach)
	if imp[1] > imp[0]/3 || imp[1] > imp[2] {
		t.Errorf("irrelevant feature importance too high: %v", imp)
	}
}

// TestLeaveOneModelOut runs the Figure 9 experiment on a subset of the
// corpus and checks that predictions track the ranking.
func TestLeaveOneModelOut(t *testing.T) {
	if testing.Short() {
		t.Skip("trains 12 models in -short mode")
	}
	problems := dataset.Generate()
	eng := engine.New()
	gen := inference.NewDispatcher(inference.NewSim(llm.Models))
	raw := make(map[string][]score.ProblemScore)
	for _, m := range llm.Models {
		raw[m.Name] = score.NewEvaluator(eng, gen).Model(m, problems, llm.GenOptions{})
	}
	if err := gen.Err(); err != nil {
		t.Fatal(err)
	}
	results, err := LeaveOneModelOut(eng, raw, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(llm.Models) {
		t.Fatalf("results = %d", len(results))
	}
	// The predictor should keep gpt-4 clearly above llama-2-70b.
	byName := map[string]LeaveOneOutResult{}
	for _, r := range results {
		byName[r.Model] = r
	}
	if byName["gpt-4"].Predicted <= byName["llama-2-70b-chat"].Predicted {
		t.Errorf("predicted order broken: gpt-4 %.1f vs llama-70b %.1f",
			byName["gpt-4"].Predicted, byName["llama-2-70b-chat"].Predicted)
	}
	// Errors are rough but bounded, echoing the paper's 5-30%-with-
	// outliers observation.
	if byName["gpt-4"].ErrorPercent > 60 {
		t.Errorf("gpt-4 prediction error = %.1f%%", byName["gpt-4"].ErrorPercent)
	}

	imp, err := GlobalImportance(eng, raw, DefaultConfig(), 400)
	if err != nil {
		t.Fatal(err)
	}
	// kv_wildcard must be the most informative feature, as in Fig 9(b).
	for name, v := range imp {
		if name == "kv_wildcard" {
			continue
		}
		if v > imp["kv_wildcard"] {
			t.Errorf("feature %s (%.4f) outranks kv_wildcard (%.4f)", name, v, imp["kv_wildcard"])
		}
	}
}
