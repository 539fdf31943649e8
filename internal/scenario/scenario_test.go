package scenario

import (
	"testing"

	"cloudeval/internal/dataset"
)

func TestEveryCorpusCategoryHasBackend(t *testing.T) {
	cats := map[dataset.Category]bool{}
	for _, p := range dataset.Generate() {
		cats[p.Category] = true
	}
	registered := map[dataset.Category]bool{}
	for _, b := range All() {
		registered[b.Category] = true
	}
	for c := range cats {
		if !registered[c] {
			t.Errorf("category %s has no scenario backend", c)
		}
	}
}

func TestBackendContracts(t *testing.T) {
	paper := 0
	for _, b := range All() {
		if b.NewEnv == nil {
			t.Fatalf("%s: no environment factory", b.Category)
		}
		if b.Marker == "" {
			t.Errorf("%s: no answer marker", b.Category)
		}
		if len(b.ImpliedImages) == 0 {
			t.Errorf("%s: no implied tool images", b.Category)
		}
		if b.Paper {
			paper++
			if b.PromptHint != "" {
				t.Errorf("%s: paper families must not add prompt scaffolding (prompts are pinned)", b.Category)
			}
		}
	}
	if paper != 3 {
		t.Errorf("paper families = %d, want the original three", paper)
	}
}

func TestForFallsBackToKubernetes(t *testing.T) {
	if got := For("no-such-family"); got.Category != dataset.Kubernetes {
		t.Errorf("unknown category resolved to %s", got.Category)
	}
}
