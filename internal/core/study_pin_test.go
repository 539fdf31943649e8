package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"cloudeval/internal/dataset"
	"cloudeval/internal/engine"
	"cloudeval/internal/inference"
	"cloudeval/internal/llm"
	"cloudeval/internal/score"
)

// TestStudyOutputsPinned pins, byte for byte, the four studies that
// run their own evaluation loops rather than reading the Table 4
// campaign: Table 5 (variants), Table 6 (few-shot), Figure 7 (failure
// modes) and Figure 8 (pass@k). They run on the first 40 originals and
// the full zoo, so the pin covers every model and every loop in well
// under a second. A change to how those loops are scheduled or wired
// must leave all four digests alone.
func TestStudyOutputsPinned(t *testing.T) {
	b := New(score.NewEvaluator(engine.New(), inference.NewDispatcher(inference.NewSim(llm.Models))), dataset.Generate()[:40], llm.Models)
	want := map[string]string{
		"table5":  "ea91ea966a20dd07900c1dc30b8f653ba694ba35b8e71dbe6ee5673315d142e6",
		"table6":  "4c7f80b63b8bbbde4a16d9b2e60a3f61050ad15abbda1d27b0e40a3d5e4b3ba9",
		"figure7": "831e699dc2bcb6d2b191e531c2a09403e502bab92ba2a35be8928afdd4efcd97",
		"figure8": "54effd313e18b135076c792f6b1a5ce73b4af9eef53e803b11b0d5d12fa7b38d",
	}
	for _, id := range []string{"table5", "table6", "figure7", "figure8"} {
		out, err := b.Experiment(id)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256([]byte(out))
		if got := hex.EncodeToString(sum[:]); got != want[id] {
			t.Errorf("%s sha256 = %s, want %s\n%s", id, got, want[id], out)
		}
	}
}
