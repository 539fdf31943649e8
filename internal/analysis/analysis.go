// Package analysis implements the evaluation studies of §4: failure
// mode categorization (Figure 7) and performance breakdowns by
// category, code context, answer length and question tokens (Figure 6,
// Table 9). It renders the studies whose evaluation loops live on
// score.Evaluator: multi-sample pass@k (Figure 8), augmented-dataset
// comparisons (Table 5) and few-shot prompting (Table 6).
package analysis

import (
	"fmt"
	"strings"

	"cloudeval/internal/dataset"
	"cloudeval/internal/scenario"
	"cloudeval/internal/score"
	"cloudeval/internal/yamlx"
)

// Categorize assigns an answer to one of the six failure modes of §4.1:
//
//	1 empty or fewer than 3 lines
//	2 longer but missing the kind field (static_resources for Envoy)
//	3 contains kind but is not complete, parseable YAML
//	4 valid YAML with an incorrect kind
//	5 valid YAML, correct kind, unit test fails
//	6 passes the unit test
func Categorize(answer string, p dataset.Problem, passed bool) int {
	if passed {
		return 6
	}
	var lines []string
	for _, ln := range strings.Split(answer, "\n") {
		if strings.TrimSpace(ln) != "" {
			lines = append(lines, ln)
		}
	}
	if len(lines) < 3 {
		return 1
	}
	backend := scenario.For(p.Category)
	if !strings.Contains(answer, backend.Marker+":") {
		return 2
	}
	docs, err := yamlx.ParseAllCached(answer)
	if err != nil {
		return 3
	}
	want := dataset.Memo(p, dataset.ReferenceKind, referenceKind)
	if want == nil {
		return 5
	}
	if got := firstKind(docs, backend); got == "" || !strings.EqualFold(got, *want) {
		return 4
	}
	return 5
}

// referenceKind is the kind p's reference declares, which a problem
// keeps, or nil when the reference does not parse.
func referenceKind(p dataset.Problem) *string {
	docs, err := yamlx.ParseAllCached(p.ReferenceYAML)
	if err != nil {
		return nil
	}
	kind := firstKind(docs, scenario.For(p.Category))
	return &kind
}

// firstKind extracts a document set's identity under a family: the
// first kind value for manifest families, or the family marker itself
// for kindless families (an Envoy bootstrap's identity is that it is a
// static_resources document).
func firstKind(docs []*yamlx.Node, backend *scenario.Backend) string {
	for _, d := range docs {
		if d == nil || d.Kind != yamlx.MapKind {
			continue
		}
		if !backend.HasKind {
			if d.Has(backend.Marker) {
				return backend.Marker
			}
			continue
		}
		if k := d.Get("kind"); k != nil {
			return k.ScalarString()
		}
	}
	return ""
}

// FailureCounts tallies a model's answers by category (index 0 = cat 1).
func FailureCounts(scores []score.ProblemScore, byID map[string]dataset.Problem) [6]int {
	var out [6]int
	for _, s := range scores {
		p := byID[s.ProblemID]
		c := Categorize(s.Answer, p, s.UnitTest == 1)
		out[c-1]++
	}
	return out
}

// ProblemIndex builds an ID lookup table.
func ProblemIndex(ps []dataset.Problem) map[string]dataset.Problem {
	out := make(map[string]dataset.Problem, len(ps))
	for _, p := range ps {
		out[p.ID] = p
	}
	return out
}

// FormatFigure7 renders failure-mode counts for selected models.
func FormatFigure7(counts map[string][6]int, order []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %6s %6s %6s %6s %6s %6s\n", "Model", "#1", "#2", "#3", "#4", "#5", "#6")
	for _, name := range order {
		c := counts[name]
		fmt.Fprintf(&b, "%-22s %6d %6d %6d %6d %6d %6d\n", name, c[0], c[1], c[2], c[3], c[4], c[5])
	}
	return b.String()
}

// Slice is a named subset predicate for breakdown analyses.
type Slice struct {
	Name  string
	Match func(p dataset.Problem) bool
}

// FamilySlices derives the per-family breakdown from the scenario
// registry, in registration order (paper families first).
func FamilySlices() []Slice {
	var out []Slice
	for _, b := range scenario.All() {
		cat := b.Category
		out = append(out, Slice{
			Name:  string(cat),
			Match: func(p dataset.Problem) bool { return p.Category == cat },
		})
	}
	return out
}

// Figure6Slices are the paper's four analysis perspectives; the
// application-category perspective grows a slice per registered
// workload family.
func Figure6Slices() map[string][]Slice {
	return map[string][]Slice{
		"application_category": FamilySlices(),
		"code_context": {
			{Name: "w/ code", Match: func(p dataset.Problem) bool { return p.HasContext() }},
			{Name: "w/o code", Match: func(p dataset.Problem) bool { return !p.HasContext() }},
		},
		"ref_answer_lines": {
			{Name: "[0,15)", Match: func(p dataset.Problem) bool { return p.SolutionLines() < 15 }},
			{Name: "[15,30)", Match: func(p dataset.Problem) bool { l := p.SolutionLines(); return l >= 15 && l < 30 }},
			{Name: ">=30", Match: func(p dataset.Problem) bool { return p.SolutionLines() >= 30 }},
		},
		"question_tokens": {
			{Name: "[0,50)", Match: func(p dataset.Problem) bool { return p.QuestionTokens() < 50 }},
			{Name: "[50,100)", Match: func(p dataset.Problem) bool { t := p.QuestionTokens(); return t >= 50 && t < 100 }},
			{Name: ">=100", Match: func(p dataset.Problem) bool { return p.QuestionTokens() >= 100 }},
		},
	}
}

// SliceScore averages a model's unit-test score over a slice.
func SliceScore(scores []score.ProblemScore, byID map[string]dataset.Problem, sl Slice) float64 {
	sum, n := 0.0, 0
	for _, s := range scores {
		if sl.Match(byID[s.ProblemID]) {
			sum += s.UnitTest
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Breakdown is Figure 6 / Table 9: per model, per perspective, per
// slice, the average unit-test score.
func Breakdown(raw map[string][]score.ProblemScore, byID map[string]dataset.Problem) map[string]map[string]map[string]float64 {
	out := map[string]map[string]map[string]float64{}
	for model, scores := range raw {
		out[model] = map[string]map[string]float64{}
		for perspective, slices := range Figure6Slices() {
			out[model][perspective] = map[string]float64{}
			for _, sl := range slices {
				out[model][perspective][sl.Name] = SliceScore(scores, byID, sl)
			}
		}
	}
	return out
}

// FormatTable9 renders the per-factor breakdown like the appendix
// table; the application-category columns come from the scenario
// registry, one per workload family.
func FormatTable9(breakdown map[string]map[string]map[string]float64, modelOrder []string) string {
	var b strings.Builder
	var cols []struct{ perspective, slice string }
	for _, sl := range FamilySlices() {
		cols = append(cols, struct{ perspective, slice string }{"application_category", sl.Name})
	}
	cols = append(cols, []struct{ perspective, slice string }{
		{"code_context", "w/ code"},
		{"code_context", "w/o code"},
		{"ref_answer_lines", "[0,15)"},
		{"ref_answer_lines", "[15,30)"},
		{"ref_answer_lines", ">=30"},
		{"question_tokens", "[0,50)"},
		{"question_tokens", "[50,100)"},
		{"question_tokens", ">=100"},
	}...)
	fmt.Fprintf(&b, "%-24s", "Model")
	for _, c := range cols {
		fmt.Fprintf(&b, "%10s", c.slice)
	}
	b.WriteString("\n")
	for _, m := range modelOrder {
		fmt.Fprintf(&b, "%-24s", m)
		for _, c := range cols {
			fmt.Fprintf(&b, "%10.3f", breakdown[m][c.perspective][c.slice])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// FormatFigure8 renders pass@k series for several models.
func FormatFigure8(series map[string][]int, order []string) string {
	var b strings.Builder
	maxK := 0
	for _, s := range series {
		if len(s) > maxK {
			maxK = len(s)
		}
	}
	fmt.Fprintf(&b, "%-20s", "k")
	for k := 1; k <= maxK; k++ {
		fmt.Fprintf(&b, "%6d", k)
	}
	b.WriteString("\n")
	for _, name := range order {
		fmt.Fprintf(&b, "%-20s", name)
		for _, v := range series[name] {
			fmt.Fprintf(&b, "%6d", v)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// FormatTable5 renders variant pass counts.
func FormatTable5(counts map[string]map[dataset.Variant]int, order []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %10s %12s %12s\n", "Model", "Original", "Simplified", "Translated")
	for _, name := range order {
		c := counts[name]
		orig := c[dataset.Original]
		line := fmt.Sprintf("%-24s %10d %7d (%+d)", name, orig, c[dataset.Simplified], c[dataset.Simplified]-orig)
		if c[dataset.Translated] < 0 {
			line += fmt.Sprintf(" %12s", "N/A")
		} else {
			line += fmt.Sprintf(" %7d (%+d)", c[dataset.Translated], c[dataset.Translated]-orig)
		}
		b.WriteString(line + "\n")
	}
	return b.String()
}

// FormatTable6 renders few-shot pass counts.
func FormatTable6(counts map[string][]int, order []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %8s %12s %12s %12s\n", "Model", "0-shot", "1-shot", "2-shot", "3-shot")
	for _, name := range order {
		c := counts[name]
		fmt.Fprintf(&b, "%-24s %8d", name, c[0])
		for s := 1; s < len(c); s++ {
			fmt.Fprintf(&b, " %7d (%+d)", c[s], c[s]-c[0])
		}
		b.WriteString("\n")
	}
	return b.String()
}
