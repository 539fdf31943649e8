package analysis

import (
	"strings"
	"testing"

	"cloudeval/internal/dataset"
	"cloudeval/internal/engine"
	"cloudeval/internal/inference"
	"cloudeval/internal/llm"
	"cloudeval/internal/score"
)

// The package's tests share one engine and one dispatcher over the
// whole zoo, so a (model, problem) pair one test evaluated is a cache
// hit for the next.
var (
	testEng = engine.New()
	testGen = inference.NewDispatcher(inference.NewSim(llm.Models))
)

// problemIn selects the first problem of a subcategory; families are
// identified by subcategory here so the tests stay free of category
// literals (those live in internal/scenario and internal/dataset only).
func problemIn(t *testing.T, sub string) dataset.Problem {
	t.Helper()
	for _, p := range dataset.Generate() {
		if p.Subcategory == sub {
			return p
		}
	}
	t.Fatalf("no %s problem", sub)
	return dataset.Problem{}
}

func k8sProblem(t *testing.T) dataset.Problem {
	t.Helper()
	return problemIn(t, "pod")
}

func TestCategorize(t *testing.T) {
	p := k8sProblem(t)
	cases := []struct {
		name   string
		answer string
		passed bool
		want   int
	}{
		{"empty", "", false, 1},
		{"two-lines", "a: 1\nb: 2", false, 1},
		{"prose-no-kind", "To do this you should\nfirst create the resource\nand then verify it\nwith kubectl commands.", false, 2},
		{"kind-but-broken", "apiVersion: v1\nkind: Pod\nmetadata:\n  spec: [unterminated\n", false, 3},
		{"wrong-kind", "apiVersion: v1\nkind: ConfigMap\nmetadata:\n  name: x\ndata:\n  k: v\n", false, 4},
		{"right-kind-fails", rightKindYAML(p), false, 5},
		{"passes", rightKindYAML(p), true, 6},
	}
	for _, c := range cases {
		if got := Categorize(c.answer, p, c.passed); got != c.want {
			t.Errorf("%s: category = %d, want %d", c.name, got, c.want)
		}
	}
}

func rightKindYAML(p dataset.Problem) string {
	// Minimal valid YAML with the same kind as the reference.
	kind := ""
	for _, ln := range strings.Split(p.ReferenceYAML, "\n") {
		if strings.HasPrefix(ln, "kind:") {
			kind = strings.TrimSpace(strings.TrimPrefix(ln, "kind:"))
			break
		}
	}
	return "apiVersion: v1\nkind: " + kind + "\nmetadata:\n  name: wrong-answer\n"
}

func TestCategorizeEnvoy(t *testing.T) {
	envoyP := problemIn(t, "envoy")
	if got := Categorize("line one here\nline two there\nline three everywhere\nline four\n", envoyP, false); got != 2 {
		t.Errorf("envoy prose without static_resources = %d, want 2", got)
	}
	if got := Categorize("static_resources:\n  listeners: []\n  clusters: []\n", envoyP, false); got != 5 {
		t.Errorf("envoy config with marker = %d, want 5", got)
	}
}

// TestCategorizeCompose pins the categorizer's registry dispatch for an
// extension family: Compose answers are identified by the services
// marker, and kindless families never produce category 4.
func TestCategorizeCompose(t *testing.T) {
	composeP := problemIn(t, "compose")
	if got := Categorize("line one here\nline two there\nline three everywhere\nline four\n", composeP, false); got != 2 {
		t.Errorf("compose prose without services = %d, want 2", got)
	}
	if got := Categorize("services:\n  web:\n    image: [broken\n", composeP, false); got != 3 {
		t.Errorf("broken compose file = %d, want 3", got)
	}
	if got := Categorize("services:\n  web:\n    image: nginx:latest\n", composeP, false); got != 5 {
		t.Errorf("valid compose file failing its test = %d, want 5", got)
	}
}

func TestFailureCountsShape(t *testing.T) {
	problems := dataset.Generate()
	byID := ProblemIndex(problems)
	strong, _ := llm.ByName("gpt-4")
	weak, _ := llm.ByName("llama-2-7b-chat")
	strongScores := score.EvaluateModelVia(testEng, testGen, strong, problems, llm.GenOptions{})
	weakScores := score.EvaluateModelVia(testEng, testGen, weak, problems, llm.GenOptions{})
	sc := FailureCounts(strongScores, byID)
	wc := FailureCounts(weakScores, byID)
	sum := func(c [6]int) int { return c[0] + c[1] + c[2] + c[3] + c[4] + c[5] }
	if sum(sc) != len(problems) || sum(wc) != len(problems) {
		t.Fatalf("counts don't cover the corpus: %v %v", sc, wc)
	}
	// GPT-4 passes far more (category 6).
	if sc[5] <= wc[5]*4 {
		t.Errorf("gpt-4 cat6 = %d should be >> llama-7b cat6 = %d", sc[5], wc[5])
	}
	// The weak model is dominated by category 5 ("gets the idea, fails
	// the test") — the paper's observation 2 for Figure 7.
	if wc[4] < len(problems)/3 {
		t.Errorf("llama-7b cat5 = %d, expected the dominant bucket", wc[4])
	}
	out := FormatFigure7(map[string][6]int{"gpt-4": sc}, []string{"gpt-4"})
	if !strings.Contains(out, "gpt-4") {
		t.Error("Figure 7 formatting broken")
	}
}

func TestSliceScoresEnvoyHardest(t *testing.T) {
	problems := dataset.Generate()
	byID := ProblemIndex(problems)
	m, _ := llm.ByName("gpt-4")
	scores := score.EvaluateModelVia(testEng, testGen, m, problems, llm.GenOptions{})
	slices := Figure6Slices()["application_category"]
	vals := map[string]float64{}
	for _, sl := range slices {
		vals[sl.Name] = SliceScore(scores, byID, sl)
	}
	if vals["envoy"] >= vals["kubernetes"] {
		t.Errorf("envoy (%.3f) should be harder than kubernetes (%.3f)", vals["envoy"], vals["kubernetes"])
	}
}

func TestSliceScoresLengthGradient(t *testing.T) {
	problems := dataset.Generate()
	byID := ProblemIndex(problems)
	m, _ := llm.ByName("gpt-3.5")
	scores := score.EvaluateModelVia(testEng, testGen, m, problems, llm.GenOptions{})
	slices := Figure6Slices()["ref_answer_lines"]
	var short, long float64
	for _, sl := range slices {
		switch sl.Name {
		case "[0,15)":
			short = SliceScore(scores, byID, sl)
		case ">=30":
			long = SliceScore(scores, byID, sl)
		}
	}
	if long >= short {
		t.Errorf("long answers (%.3f) should score below short answers (%.3f)", long, short)
	}
}

func TestPassAtKMonotone(t *testing.T) {
	problems := dataset.Generate()[:60]
	m, _ := llm.ByName("gpt-3.5")
	series := PassAtKVia(testEng, testGen, m, problems, 6, 0.75)
	if len(series) != 6 {
		t.Fatalf("series length = %d", len(series))
	}
	for k := 1; k < len(series); k++ {
		if series[k] < series[k-1] {
			t.Fatalf("pass@k not monotone: %v", series)
		}
	}
	if series[5] <= series[0] {
		t.Errorf("multi-sample gave no improvement: %v", series)
	}
}

func TestVariantPassCountsEnglishOnly(t *testing.T) {
	m, _ := llm.ByName("palm-2-bison")
	problems := dataset.Generate()[:30]
	// Build a tiny augmented corpus.
	var all []dataset.Problem
	for _, p := range problems {
		s := p
		s.ID, s.Variant = p.ID+"-s", dataset.Simplified
		tr := p
		tr.ID, tr.Variant = p.ID+"-t", dataset.Translated
		all = append(all, p, s, tr)
	}
	counts := VariantPassCountsVia(testEng, testGen, m, all)
	if counts[dataset.Translated] != -1 {
		t.Errorf("PaLM translated should be N/A, got %d", counts[dataset.Translated])
	}
	out := FormatTable5(map[string]map[dataset.Variant]int{"palm-2-bison": counts}, []string{"palm-2-bison"})
	if !strings.Contains(out, "N/A") {
		t.Errorf("Table 5 should print N/A:\n%s", out)
	}
}

func TestFewShotCounts(t *testing.T) {
	m, _ := llm.ByName("gpt-3.5")
	counts := FewShotPassCountsVia(testEng, testGen, m, dataset.Generate()[:60], 2)
	if len(counts) != 3 {
		t.Fatalf("counts = %v", counts)
	}
	out := FormatTable6(map[string][]int{"gpt-3.5": counts}, []string{"gpt-3.5"})
	if !strings.Contains(out, "0-shot") {
		t.Errorf("Table 6 formatting:\n%s", out)
	}
}
