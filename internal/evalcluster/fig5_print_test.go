package evalcluster

import (
	"cloudeval/internal/augment"
	"cloudeval/internal/dataset"
	"cloudeval/internal/engine"
	"testing"
)

func TestPrintFigure5(t *testing.T) {
	jobs := JobsFromProblems(engine.New(), augment.ExpandCorpus(dataset.Generate()))
	for _, r := range Figure5(jobs, []int{1, 4, 16, 64}) {
		t.Logf("workers=%2d cache=%-5v total=%6.2fh wan=%8.0fMB", r.Workers, r.SharedCache, r.Total.Hours(), r.WANTrafficMB)
	}
}
