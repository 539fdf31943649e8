package repostats

import (
	"strings"
	"testing"
)

func TestSurveySize(t *testing.T) {
	if len(Table8) != 100 {
		t.Fatalf("survey covers %d repos, want 100", len(Table8))
	}
}

func TestNinetyOfHundredClaim(t *testing.T) {
	// The paper's headline: 90 of the top 100 use more than 10 YAML
	// files (counting repos at 10 or above; OpenCV sits exactly at 10).
	if got := CountAtLeast(Table8, 10); got != 90 {
		t.Errorf("repos with 10+ YAML files = %d, want 90", got)
	}
	if got := CountAtLeast(Table8, 101); got >= 50 {
		t.Errorf("repos with >100 YAML files = %d, expected a minority", got)
	}
}

func TestFormatTable8(t *testing.T) {
	out := FormatTable8(Table8)
	for _, want := range []string{"GitLab", "Kubernetes", "90/100 have 10+"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 8 missing %q:\n%s", want, out)
		}
	}
}
