package llm

import (
	"math"
	"math/rand"
	"testing"

	"cloudeval/internal/augment"
	"cloudeval/internal/dataset"
	"cloudeval/internal/textmetrics"
	"cloudeval/internal/yamlmatch"
)

// TestCorruptorOutputsScoreAlike feeds what every answer corruptor
// makes of every reference — the inputs scoring exists for: truncated,
// re-kinded, field-mangled, reordered and label-substituted YAML, bare
// prose and near-empty answers — to the compiled scoring kernels and
// to the two-string functions, and requires all five metrics to agree
// to the bit.
func TestCorruptorOutputsScoreAlike(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus in -short mode")
	}
	m := Models[0]
	rng := rand.New(rand.NewSource(1))
	for _, p := range augment.ExpandCorpus(dataset.Generate()) {
		kv := yamlmatch.NewRef(p.ReferenceYAML)
		clean := kv.Clean
		bleu, lines := textmetrics.NewBLEURef(clean), textmetrics.NewLineRef(clean)
		c := contextFor(p)
		answers := []string{
			truncateYAML(c, rng),
			wrongKind(c, rng),
			corruptYAML(c, rng),
			harmlessNoise(c, rng),
		}
		for cat := 1; cat <= 2; cat++ {
			answers = append(answers, m.emit(cat, p, rng, rng))
		}
		for _, a := range answers {
			kvExact, kvWildcard := kv.Score(a)
			got := [5]float64{bleu.Score(a), lines.EditDistanceScore(a), lines.ExactMatch(a), kvExact, kvWildcard}
			want := [5]float64{
				textmetrics.BLEU(a, clean),
				textmetrics.EditDistanceScore(a, clean),
				textmetrics.ExactMatch(a, clean),
				yamlmatch.KVExactMatch(a, clean),
				yamlmatch.KVWildcardMatch(a, p.ReferenceYAML),
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Errorf("%s: compiled %v, two-string %v\nanswer: %q", p.ID, got, want, a)
					break
				}
			}
		}
	}
}
