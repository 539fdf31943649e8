package llm

import (
	"strings"
	"testing"

	"cloudeval/internal/dataset"
	"cloudeval/internal/yamlmatch"
	"cloudeval/internal/yamlx"
)

func TestModelsZooShape(t *testing.T) {
	if len(Models) != 12 {
		t.Fatalf("zoo size = %d, want 12 (Table 4)", len(Models))
	}
	if Models[0].Name != "gpt-4" || Models[len(Models)-1].Name != "codellama-13b-instruct" {
		t.Errorf("ranking order broken: %s ... %s", Models[0].Name, Models[len(Models)-1].Name)
	}
	openCount := 0
	for _, m := range Models {
		if m.OpenSource {
			openCount++
		}
		sum := 0.0
		for _, w := range m.Profile.CatWeights {
			sum += w
		}
		if sum < 0.9 || sum > 1.1 {
			t.Errorf("%s: category weights sum to %v", m.Name, sum)
		}
	}
	if openCount != 9 {
		t.Errorf("open-source models = %d, want 9", openCount)
	}
	if _, ok := ByName("gpt-4"); !ok {
		t.Error("ByName lookup broken")
	}
	if _, ok := ByName("nonexistent"); ok {
		t.Error("ByName should miss unknown names")
	}
}

// TestByNameMatchesZoo pins the init-time lookup map to the slice:
// every zoo entry resolves to itself, and Names stays a stable cached
// ranking-order view.
func TestByNameMatchesZoo(t *testing.T) {
	for i, m := range Models {
		got, ok := ByName(m.Name)
		if !ok || got.Name != m.Name || got.Profile != m.Profile {
			t.Errorf("ByName(%q) does not match Models[%d]", m.Name, i)
		}
	}
	names := Names()
	if len(names) != len(Models) {
		t.Fatalf("Names() has %d entries, want %d", len(names), len(Models))
	}
	for i, m := range Models {
		if names[i] != m.Name {
			t.Errorf("Names()[%d] = %q, want %q (ranking order)", i, names[i], m.Name)
		}
	}
	// The cached slice is shared: repeated calls return the same view.
	if &names[0] != &Names()[0] {
		t.Error("Names() should return the cached slice, not rebuild per call")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := dataset.Generate()[0]
	m, _ := ByName("gpt-4")
	a := m.Generate(p, GenOptions{})
	b := m.Generate(p, GenOptions{})
	if a != b {
		t.Error("greedy generation must be deterministic")
	}
	// Different samples at temperature 0 are identical.
	c := m.Generate(p, GenOptions{Sample: 5})
	if a != c {
		t.Error("temperature 0 must pin all samples")
	}
	// At temperature > 0 samples may differ (over many problems, some must).
	diff := 0
	for _, p := range dataset.Generate()[:50] {
		x := m.Generate(p, GenOptions{Sample: 0, Temperature: 0.8})
		y := m.Generate(p, GenOptions{Sample: 1, Temperature: 0.8})
		if x != y {
			diff++
		}
	}
	if diff == 0 {
		t.Error("temperature sampling produced no diversity at all")
	}
}

func TestDifficultyOrdering(t *testing.T) {
	ps := dataset.Generate()
	var envoySum, podSum float64
	var envoyN, podN int
	for _, p := range ps {
		d := Difficulty(p)
		if d < 0 || d > 1 {
			t.Fatalf("difficulty out of range: %v", d)
		}
		switch {
		case p.Subcategory == "envoy":
			envoySum += d
			envoyN++
		case p.Subcategory == "pod":
			podSum += d
			podN++
		}
	}
	if envoySum/float64(envoyN) <= podSum/float64(podN) {
		t.Error("envoy problems should be harder than pod problems")
	}
}

func TestPostprocessPolicies(t *testing.T) {
	yaml := "apiVersion: v1\nkind: Pod\nmetadata:\n  name: x\n"
	cases := []struct {
		name string
		raw  string
	}{
		{"plain", yaml},
		{"markdown", "Sure thing!\n```yaml\n" + yaml + "```\ndone\n"},
		{"bare-fence", "```\n" + yaml + "```\n"},
		{"yml-fence", "```yml\n" + yaml + "```\n"},
		{"Yaml-fence", "Sure:\n```Yaml\n" + yaml + "```\nDone.\n"},
		{"info-fence-unclosed", "```yml\n" + yaml},
		{"info-fence-crlf", "```yml\r\n" + yaml + "```\r\n"},
		{"here", "Here is the YAML file:\n" + yaml},
		{"preamble-apiversion", "The following manifest works.\n" + yaml},
		{"code-tags", "<code>\n" + yaml + "</code>\n"},
		{"latex", "\\begin{code}\n" + yaml + "\\end{code}\n"},
		{"solution", "START SOLUTION\n" + yaml + "END SOLUTION\n"},
		{"unclosed-fence", "```yaml\n" + yaml},
	}
	for _, c := range cases {
		got := Postprocess(c.raw)
		n, err := yamlx.ParseString(got)
		if err != nil {
			t.Errorf("%s: postprocessed output does not parse: %v\n%q", c.name, err, got)
			continue
		}
		if n.Get("kind").ScalarString() != "Pod" {
			t.Errorf("%s: lost the document: %q", c.name, got)
		}
	}
	// A fence's info string is not the answer's first line; a block
	// that closes on its opener's line has no info string.
	for raw, want := range map[string]string{
		"```yml\n" + yaml + "```\n":    yaml,
		"```Yaml\n" + yaml + "```\n":   yaml,
		"```yml\n" + yaml:              yaml,
		"```a: 1```":                   "a: 1\n",
		"```a: 1":                      "a: 1\n",
		"```\n\n" + yaml + "\n```\n":   yaml,
		"x ```yml b```\n" + yaml:       "yml b\n",
		"```text\n```\n" + yaml + "\n": "\n",
	} {
		if got := Postprocess(raw); got != want {
			t.Errorf("Postprocess(%q) = %q, want %q", raw, got, want)
		}
	}
}

// TestPostprocessForeignMarkerProse: a preamble line that merely
// begins with another family's document-start marker must not swallow
// the real document — the policy-2 cut requires the remainder to
// parse. Truncated documents still fall back to the first marker line.
func TestPostprocessForeignMarkerProse(t *testing.T) {
	yaml := "apiVersion: v1\nkind: Pod\nmetadata:\n  name: x\n"
	got := Postprocess("services: web and db, wired as follows\n" + yaml)
	if got != yaml {
		t.Errorf("prose marker swallowed the document: %q", got)
	}
	truncated := "apiVersion: v1\nkind: Pod\nmetadata:\n  spec: [unterminated\n"
	if got := Postprocess("preamble text\n" + truncated); !strings.HasPrefix(got, "apiVersion: v1") {
		t.Errorf("truncated document lost its marker fallback: %q", got)
	}
}

func TestPostprocessEnvoy(t *testing.T) {
	yaml := "static_resources:\n  listeners: []\n"
	got := Postprocess("Let me explain the listener setup first.\n" + yaml)
	if !strings.HasPrefix(got, "static_resources:") {
		t.Errorf("envoy marker not honored: %q", got)
	}
}

func TestWrapStylesRoundTripThroughPostprocess(t *testing.T) {
	p := dataset.Generate()[10]
	for _, m := range Models {
		raw := m.Generate(p, GenOptions{})
		clean := Postprocess(raw)
		// Whatever the dressing, the result must be plausible text (we
		// cannot require valid YAML: weak models emit broken answers by
		// design).
		if strings.Contains(clean, "```") {
			t.Errorf("%s: fences survived post-processing:\n%s", m.Name, clean)
		}
		if strings.Contains(clean, "END SOLUTION") || strings.Contains(clean, "</code>") {
			t.Errorf("%s: delimiters survived post-processing:\n%s", m.Name, clean)
		}
	}
}

func TestCorrectEmissionPassesWildcard(t *testing.T) {
	// Category 6 answers (with harmless noise) must keep KV-wildcard at
	// 1; gpt-4 answers roughly half the corpus correctly, so scanning a
	// problem window must surface perfect answers.
	m, _ := ByName("gpt-4")
	found := 0
	for _, p := range dataset.Generate()[:40] {
		raw := m.Generate(p, GenOptions{})
		ans := Postprocess(raw)
		if yamlmatch.KVWildcardMatch(ans, p.ReferenceYAML) == 1 {
			found++
		}
	}
	if found < 10 {
		t.Errorf("gpt-4 produced only %d/40 wildcard-perfect answers", found)
	}
}

func TestStrongBeatsWeakOnSuccessRate(t *testing.T) {
	ps := dataset.Generate()[:80]
	strong, _ := ByName("gpt-4")
	weak, _ := ByName("codellama-13b-instruct")
	countPerfect := func(m Model) int {
		n := 0
		for _, p := range ps {
			ans := Postprocess(m.Generate(p, GenOptions{}))
			if yamlmatch.KVWildcardMatch(ans, p.ReferenceYAML) == 1 {
				n++
			}
		}
		return n
	}
	s, w := countPerfect(strong), countPerfect(weak)
	if s <= w {
		t.Errorf("gpt-4 perfect answers (%d) should exceed codellama-13b (%d)", s, w)
	}
	if s < 20 {
		t.Errorf("gpt-4 produced only %d/80 perfect answers; calibration looks off", s)
	}
}
