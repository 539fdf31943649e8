package score

import (
	"testing"

	"cloudeval/internal/llm"
)

func TestPrintCalibration(t *testing.T) {
	rows, _ := testEv.Benchmark(llm.Models, fullCorpus())
	for _, r := range rows {
		t.Logf("%-24s unit=%.3f bleu=%.3f kvw=%.3f", r.Model, r.UnitTest, r.BLEU, r.KVWildcard)
	}
}
