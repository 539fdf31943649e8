package analysis

import (
	"cloudeval/internal/dataset"
	"cloudeval/internal/llm"
	"testing"
)

func TestPrintPassK(t *testing.T) {
	ps := dataset.Generate()
	for _, name := range []string{"gpt-3.5", "llama-2-70b-chat", "palm-2-bison"} {
		m, _ := llm.ByName(name)
		s := testEv.PassAtK(m, ps, 16, 0.75)
		t.Logf("%s: pass@1=%d pass@16=%d ratio=%.2f", name, s[0], s[15], float64(s[15])/float64(s[0]))
	}
}

// TestPassAtKGainBounds pins the §4.2 shape: multi-sample gains are
// meaningful but bounded (the paper reports 30-39% at 20 samples), far
// below the 1-(1-p)^k of independent sampling.
func TestPassAtKGainBounds(t *testing.T) {
	ps := dataset.Generate()
	m, _ := llm.ByName("gpt-3.5")
	s := testEv.PassAtK(m, ps, 16, 0.75)
	gain := float64(s[15]) / float64(s[0])
	if gain < 1.15 || gain > 1.8 {
		t.Errorf("gpt-3.5 pass@16 gain = %.2fx, want the paper's bounded regime", gain)
	}
}
