package unittest

import (
	"strings"
	"testing"

	"cloudeval/internal/augment"
	"cloudeval/internal/dataset"
	"cloudeval/internal/scenario"
	"cloudeval/internal/yamlmatch"
)

// TestEveryReferencePassesItsUnitTest is the corpus's core invariant:
// each of the 337 reference answers must pass its own unit test inside
// the simulated environment, exactly as the paper verified its dataset
// against real clusters.
func TestEveryReferencePassesItsUnitTest(t *testing.T) {
	for _, p := range dataset.Generate() {
		p := p
		t.Run(p.ID, func(t *testing.T) {
			clean := yamlmatch.StripLabels(p.ReferenceYAML)
			res := Run(p, clean)
			if res.Err != nil {
				t.Fatalf("script error: %v", res.Err)
			}
			if !res.Passed {
				t.Fatalf("reference failed its unit test (exit %d):\n--- output ---\n%s\n--- reference ---\n%s\n--- test ---\n%s",
					res.ExitCode, res.Output, clean, p.UnitTest)
			}
		})
	}
}

// TestCorpusInvariantPerFamily is the registry-generalized corpus
// invariant: every registered workload family contributes problems,
// and each family's references pass their own unit tests inside that
// family's simulated environment. A new backend whose corpus or
// environment is broken fails here by name instead of vanishing into
// the flat corpus sweep above.
func TestCorpusInvariantPerFamily(t *testing.T) {
	byFamily := map[dataset.Category][]dataset.Problem{}
	for _, p := range dataset.Generate() {
		byFamily[p.Category] = append(byFamily[p.Category], p)
	}
	for _, b := range scenario.All() {
		b := b
		t.Run(string(b.Category), func(t *testing.T) {
			problems := byFamily[b.Category]
			if len(problems) == 0 {
				t.Fatalf("family %s has no problems in the corpus", b.Category)
			}
			for _, p := range problems {
				clean := yamlmatch.StripLabels(p.ReferenceYAML)
				res := Run(p, clean)
				if res.Err != nil {
					t.Fatalf("%s: script error: %v", p.ID, res.Err)
				}
				if !res.Passed {
					t.Fatalf("%s: reference failed its unit test (exit %d):\n%s", p.ID, res.ExitCode, res.Output)
				}
			}
		})
	}
	for cat := range byFamily {
		if scenario.For(cat).Category != cat {
			t.Errorf("category %s falls back to another family's backend", cat)
		}
	}
}

// TestEmptyAnswersFail ensures the tests discriminate: an empty answer
// must never pass.
func TestEmptyAnswersFail(t *testing.T) {
	for _, p := range dataset.Generate() {
		if res := Run(p, ""); res.Passed {
			t.Errorf("%s: empty answer passed the unit test", p.ID)
		}
	}
}

// TestGarbageAnswersFail ensures syntactically broken YAML never passes.
func TestGarbageAnswersFail(t *testing.T) {
	ps := dataset.Generate()
	for i := 0; i < len(ps); i += 7 { // sample for speed
		p := ps[i]
		if res := Run(p, "this is { not yaml ::"); res.Passed {
			t.Errorf("%s: garbage answer passed", p.ID)
		}
	}
}

// TestWrongKindFails checks that answers of the wrong resource kind are
// rejected by the functional tests.
func TestWrongKindFails(t *testing.T) {
	wrong := `apiVersion: v1
kind: ConfigMap
metadata:
  name: decoy
data:
  k: v
`
	ps := dataset.Generate()
	for i := 0; i < len(ps); i += 11 {
		p := ps[i]
		if p.Subcategory == "others" {
			continue // some others problems are themselves ConfigMaps
		}
		if res := Run(p, wrong); res.Passed {
			t.Errorf("%s: wrong-kind answer passed:\n%s", p.ID, res.Output)
		}
	}
}

// TestVirtualTimeIsTracked verifies scripts consume virtual, not real,
// time.
func TestVirtualTimeIsTracked(t *testing.T) {
	ps := dataset.Generate()
	var sawTime bool
	for _, p := range ps[:40] {
		res := Run(p, yamlmatch.StripLabels(p.ReferenceYAML))
		if res.VirtualTime > 0 {
			sawTime = true
			break
		}
	}
	if !sawTime {
		t.Error("no unit test consumed virtual time; waits are not wired to the clock")
	}
}

func TestScoreMapping(t *testing.T) {
	if (Result{Passed: true}).Score() != 1 || (Result{}).Score() != 0 {
		t.Error("Score mapping broken")
	}
}

// TestCorporaShareCompiledPrograms: every paper benchmark's corpus is
// augment.ExpandCorpus(dataset.Generate()); two of them run the same
// compiled programs, and a problem's variants run its original's.
func TestCorporaShareCompiledPrograms(t *testing.T) {
	a, b := augment.ExpandCorpus(dataset.Generate()), augment.ExpandCorpus(dataset.Generate())
	for i := range a {
		prog := dataset.Memo(a[i], dataset.TestProgram, compileScript).prog
		if prog == nil || prog != dataset.Memo(b[i], dataset.TestProgram, compileScript).prog {
			t.Fatalf("%s: two corpora compiled the unit test twice", a[i].ID)
		}
		if prog != dataset.Memo(a[i-i%3], dataset.TestProgram, compileScript).prog {
			t.Fatalf("%s: the variant compiled its original's unit test again", a[i].ID)
		}
	}
}

// TestOutputIsStdoutOnly: Output is what the script wrote to stdout.
// Its stderr is neither kept nor written, so a script that writes only
// there leaves Output empty and cannot pass by it; a top-level "2>&1"
// points stderr at stdout, so what it sends there is Output too.
func TestOutputIsStdoutOnly(t *testing.T) {
	const notFound = "Error from server (NotFound): pods \"web\" not found\n"
	for _, tc := range []struct {
		script, output string
		exit           int
		passed         bool
	}{
		{`kubectl get pods web -o jsonpath='{.metadata.name}'`, "", 1, false},
		{`echo unit_test_passed >&2`, "", 0, false},
		{`kubectl get pods web -o jsonpath='{.metadata.name}' 2>&1`, notFound, 1, false},
		{`echo before; kubectl get pods web -o jsonpath='{.metadata.name}' 2>&1; echo after`, "before\n" + notFound + "after\n", 0, false},
		{`kubectl get pods web -o jsonpath='{.metadata.name}' 2>&1 | grep -c NotFound`, "1\n", 0, false},
		{`echo unit_test_passed 1>&2 2>&1`, "", 0, false},
		{`echo unit_test_passed 2>&1 1>&2`, "unit_test_passed\n", 0, true},
	} {
		res := Run(dataset.Problem{UnitTest: tc.script}, "")
		if res.Err != nil || res.Output != tc.output || res.ExitCode != tc.exit || res.Passed != tc.passed {
			t.Errorf("%s: %+v, want Output %q, exit %d, passed %v", tc.script, res, tc.output, tc.exit, tc.passed)
		}
	}
}

func TestPassMarkerVariants(t *testing.T) {
	p := dataset.Problem{UnitTest: `echo cn1000_unit_test_passed`}
	if !Run(p, "").Passed {
		t.Error("prefixed pass markers must be accepted")
	}
	p2 := dataset.Problem{UnitTest: `echo nothing here`}
	if Run(p2, "").Passed {
		t.Error("scripts without the marker must fail")
	}
	if !strings.Contains(Run(p, "").Output, "cn1000") {
		t.Error("output should be captured")
	}
}
