package dataset

import (
	"strings"
	"testing"

	"cloudeval/internal/yamlmatch"
	"cloudeval/internal/yamlx"
)

func TestGenerateCountsMatchTable2(t *testing.T) {
	ps := Generate()
	if len(ps) != TotalOriginal {
		t.Fatalf("corpus size = %d, want %d", len(ps), TotalOriginal)
	}
	groups := ByGroup(ps)
	want := map[string]int{
		"pod": 48, "daemonset": 55, "service": 20, "job": 19,
		"deployment": 19, "others": 122, "envoy": 41, "istio": 13,
		"compose": 24, "helm": 16,
	}
	for k, n := range want {
		if got := len(groups[k]); got != n {
			t.Errorf("%s count = %d, want %d", k, got, n)
		}
	}
}

// TestGenerateIsDeterministic runs the generator behind Generate's
// once-per-process corpus twice: copies of that corpus are trivially
// equal, two generations need not be.
func TestGenerateIsDeterministic(t *testing.T) {
	a, b := generate(), generate()
	if len(a) != len(b) {
		t.Fatalf("%d problems, then %d", len(a), len(b))
	}
	for i := range a {
		if a[i].c != nil || b[i].c != nil {
			t.Fatalf("problem %d: the generator compiled state", i)
		}
		if a[i] != b[i] { // with c nil on both, the exported fields
			t.Fatalf("problem %d differs between generations", i)
		}
	}
}

func TestProblemsAreWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range Generate() {
		if p.ID == "" || seen[p.ID] {
			t.Errorf("duplicate or empty ID %q", p.ID)
		}
		seen[p.ID] = true
		if strings.TrimSpace(p.Question) == "" {
			t.Errorf("%s: empty question", p.ID)
		}
		if strings.TrimSpace(p.ReferenceYAML) == "" {
			t.Errorf("%s: empty reference", p.ID)
		}
		if !strings.Contains(p.UnitTest, "unit_test_passed") {
			t.Errorf("%s: unit test never emits the pass marker", p.ID)
		}
		if p.Source == "" {
			t.Errorf("%s: missing provenance", p.ID)
		}
	}
}

func TestReferencesParseAsYAML(t *testing.T) {
	for _, p := range Generate() {
		if _, err := yamlx.ParseAll([]byte(p.ReferenceYAML)); err != nil {
			t.Errorf("%s: reference does not parse: %v", p.ID, err)
		}
		if p.ContextYAML != "" {
			if _, err := yamlx.ParseAll([]byte(p.ContextYAML)); err != nil {
				t.Errorf("%s: context does not parse: %v", p.ID, err)
			}
		}
	}
}

func TestReferenceSelfWildcardMatch(t *testing.T) {
	for _, p := range Generate() {
		clean := yamlmatch.StripLabels(p.ReferenceYAML)
		if got := yamlmatch.KVWildcardMatch(clean, p.ReferenceYAML); got != 1 {
			t.Errorf("%s: reference does not wildcard-match itself: %v", p.ID, got)
		}
	}
}

func TestStatsShape(t *testing.T) {
	ps := Generate()
	s := ComputeStats(ps)
	if s.Count != TotalOriginal {
		t.Errorf("stats count = %d", s.Count)
	}
	if s.AvgSolutionLines < 10 || s.AvgSolutionLines > 60 {
		t.Errorf("avg solution lines = %.2f, expected tens of lines like the paper's 28.35", s.AvgSolutionLines)
	}
	if s.AvgUnitTestLines < 5 {
		t.Errorf("avg unit test lines = %.2f, expected nontrivial scripts", s.AvgUnitTestLines)
	}
	// Envoy problems must be the longest, as in the paper — including
	// against the extension families.
	groups := ByGroup(ps)
	envoyLines := ComputeStats(groups["envoy"]).AvgSolutionLines
	for _, col := range []string{"pod", "service", "job", "deployment", "istio", "compose", "helm"} {
		if ComputeStats(groups[col]).AvgSolutionLines >= envoyLines {
			t.Errorf("%s solutions (%.1f lines) >= envoy (%.1f); envoy should be longest",
				col, ComputeStats(groups[col]).AvgSolutionLines, envoyLines)
		}
	}
}

func TestFormatTable2(t *testing.T) {
	out := FormatTable2(Generate())
	for _, want := range []string{"Total Problem Count", "48", "55", "122", "compose", "helm", "377", "Avg. Lines of Solution"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 output missing %q:\n%s", want, out)
		}
	}
}

func TestContextProblemsExist(t *testing.T) {
	withCtx := 0
	for _, p := range Generate() {
		if p.HasContext() {
			withCtx++
		}
	}
	if withCtx < 20 {
		t.Errorf("only %d problems carry YAML context; Figure 6 needs a code-context split", withCtx)
	}
}
