package core_test

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cloudeval/internal/core"
	"cloudeval/internal/dataset"
	"cloudeval/internal/engine"
	"cloudeval/internal/inference"
	"cloudeval/internal/llm"
	"cloudeval/internal/score"
	"cloudeval/internal/unittest"
)

func smallBench() *core.Benchmark {
	models := llm.Models[:2]
	return core.New(score.NewEvaluator(engine.New(), inference.NewDispatcher(inference.NewSim(models))), dataset.Generate()[:8], models)
}

func TestCampaignCheckpointAndResume(t *testing.T) {
	dir := t.TempDir()
	b := smallBench()
	ids := []string{"table2", "table4"}

	var first strings.Builder
	report, err := b.RunCampaign(dir, ids, &first, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(report.Ran, ids) || len(report.Skipped) != 0 {
		t.Fatalf("first run report = %+v", report)
	}
	rec, err := core.ReadCampaign(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec.Experiments, ids) || !reflect.DeepEqual(rec.Completed, ids) {
		t.Fatalf("manifest experiments = %v, completed = %v, want %v", rec.Experiments, rec.Completed, ids)
	}
	for _, id := range ids {
		if !strings.Contains(first.String(), "=== "+id+" ===\n"+rec.Outputs[id]+"\n") {
			t.Errorf("recorded %s output is not what the run wrote", id)
		}
	}

	// A fresh benchmark (fresh process) replays from the checkpoint:
	// nothing runs, output identical.
	var second strings.Builder
	report2, err := smallBench().RunCampaign(dir, ids, &second, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(report2.Ran) != 0 || !reflect.DeepEqual(report2.Skipped, ids) {
		t.Fatalf("resumed report = %+v, want everything skipped", report2)
	}
	if first.String() != second.String() {
		t.Errorf("resumed campaign output differs:\n--- first ---\n%s--- second ---\n%s", first.String(), second.String())
	}
}

func TestCampaignPartialResume(t *testing.T) {
	dir := t.TempDir()
	// Simulate a campaign interrupted after table2: only table2 in the
	// manifest, then a wider re-run.
	if _, err := smallBench().RunCampaign(dir, []string{"table2"}, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	report, err := smallBench().RunCampaign(dir, []string{"table2", "table4"}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(report.Skipped, []string{"table2"}) || !reflect.DeepEqual(report.Ran, []string{"table4"}) {
		t.Fatalf("partial resume report = %+v", report)
	}
}

// TestCampaignMissingOutputFileReruns: a checkpoint the manifest
// promises but the disk does not deliver is re-run. A power loss can
// leave an output file or the manifest empty as well as missing: an
// empty output file is not replayed as the experiment's output, and an
// empty manifest reads as a fresh campaign instead of failing every
// later run.
func TestCampaignMissingOutputFileReruns(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(dir string) error
	}{
		{"deleted output", func(dir string) error { return os.Remove(filepath.Join(dir, "table2.txt")) }},
		{"empty output", func(dir string) error { return os.Truncate(filepath.Join(dir, "table2.txt"), 0) }},
		{"empty manifest", func(dir string) error { return os.Truncate(filepath.Join(dir, core.ManifestName), 0) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var first strings.Builder
			if _, err := smallBench().RunCampaign(dir, []string{"table2"}, &first, nil, nil); err != nil {
				t.Fatal(err)
			}
			if err := tc.damage(dir); err != nil {
				t.Fatal(err)
			}
			if rec, err := core.ReadCampaign(dir); err != nil || len(rec.Completed) != 0 {
				t.Fatalf("ReadCampaign after %s = %+v, %v; want nothing completed", tc.name, rec, err)
			}
			var second strings.Builder
			report, err := smallBench().RunCampaign(dir, []string{"table2"}, &second, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(report.Ran, []string{"table2"}) {
				t.Fatalf("report after %s = %+v, want table2 re-run", tc.name, report)
			}
			if second.String() != first.String() {
				t.Errorf("re-run output %q, want %q", second.String(), first.String())
			}
		})
	}
}

func TestCampaignUnknownExperiment(t *testing.T) {
	if _, err := smallBench().RunCampaign(t.TempDir(), []string{"table99"}, nil, nil, nil); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// failingGenProvider errors on every generation.
type failingGenProvider struct{}

func (failingGenProvider) Name() string { return "failing" }
func (failingGenProvider) Generate(ctx context.Context, req inference.Request) (inference.Response, error) {
	return inference.Response{}, fmt.Errorf("backend down")
}
func (failingGenProvider) Close() error { return nil }

// TestCampaignFailsOnGenerationErrors pins the CLI campaign path: an
// experiment whose generations fail must fail the campaign without
// being checkpointed, so a retry after the provider recovers re-runs
// it instead of replaying zero-scored output as complete.
func TestCampaignFailsOnGenerationErrors(t *testing.T) {
	dir := t.TempDir()
	disp := inference.NewDispatcher(failingGenProvider{})
	b := core.New(score.NewEvaluator(engine.New(), disp), dataset.Generate()[:4], llm.Models[:2])
	_, err := b.RunCampaign(dir, []string{"table4"}, io.Discard, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "generation failures") {
		t.Fatalf("campaign over a dead provider: err = %v, want generation failures", err)
	}
	rec, err := core.ReadCampaign(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Completed) != 0 || len(rec.Outputs) != 0 {
		t.Fatalf("failed experiment checkpointed as complete: %v", rec.Completed)
	}
	if !reflect.DeepEqual(rec.Experiments, []string{"table4"}) {
		t.Fatalf("manifest experiments = %v, want them recorded before the first experiment", rec.Experiments)
	}

	// After the provider recovers, the same campaign runs clean.
	healthy := core.New(score.NewEvaluator(engine.New(), inference.NewDispatcher(inference.NewSim(llm.Models[:2]))), dataset.Generate()[:4], llm.Models[:2])
	report, err := healthy.RunCampaign(dir, []string{"table4"}, io.Discard, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Ran) != 1 || len(report.Skipped) != 0 {
		t.Fatalf("recovered campaign report = %+v, want table4 freshly run", report)
	}
}

// panickingExecutor runs unit tests in process but panics on one
// problem, as a simulator bug would.
type panickingExecutor struct {
	engine.PoolExecutor
	id string
}

func (x panickingExecutor) RunUnitTest(p dataset.Problem, answer string) unittest.Result {
	if p.ID == x.id {
		panic("simulator bug on " + p.ID)
	}
	return x.PoolExecutor.RunUnitTest(p, answer)
}

// TestExperimentFailsOnExecutorPanic: a panic on one of the engine's
// workers fails the experiment with the panic's value instead of
// killing the process, and the same benchmark goes on serving.
func TestExperimentFailsOnExecutorPanic(t *testing.T) {
	models := llm.Models[:2]
	originals := dataset.Generate()[:4]
	eng := engine.New(engine.WithExecutor(panickingExecutor{id: originals[0].ID}))
	b := core.New(score.NewEvaluator(eng, inference.NewDispatcher(inference.NewSim(models))), originals, models)
	_, err := b.Experiment("table4")
	if want := "simulator bug on " + originals[0].ID; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("table4 over a panicking executor: err = %v, want one naming %q", err, want)
	}
	out, err := b.Experiment("table2")
	if err != nil || out != b.Table2() {
		t.Fatalf("table2 after the panic: %q, %v", out, err)
	}
}

// TestValidTenant pins the tenant-name grammar: short alphanumeric
// names (with interior - and _) pass, and anything that could escape
// the checkpoint root — separators, dots, spaces — is rejected.
func TestValidTenant(t *testing.T) {
	for _, good := range []string{"default", "team-a", "a", "x_1", "A9", strings.Repeat("t", 64)} {
		if !core.ValidTenant(good) {
			t.Errorf("ValidTenant(%q) = false, want true", good)
		}
	}
	for _, bad := range []string{
		"", "../evil", "a/b", "a\\b", "a.b", "a b", "-lead", "_lead",
		strings.Repeat("t", 65), "tenänt", "a\x00b",
	} {
		if core.ValidTenant(bad) {
			t.Errorf("ValidTenant(%q) = true, want false", bad)
		}
	}
}

// TestCampaignRoot pins the checkpoint layout contract: the default
// tenant (and the empty string) keep the pre-tenancy campaigns/
// directory so existing data dirs resume in place, and named tenants
// are rooted under tenants/<name>/campaigns.
func TestCampaignRoot(t *testing.T) {
	if got := core.CampaignRoot("data", core.TenantDefault); got != filepath.Join("data", "campaigns") {
		t.Errorf("default tenant root = %q", got)
	}
	if got := core.CampaignRoot("data", ""); got != filepath.Join("data", "campaigns") {
		t.Errorf("empty tenant root = %q", got)
	}
	if got := core.CampaignRoot("data", "beta"); got != filepath.Join("data", "tenants", "beta", "campaigns") {
		t.Errorf("named tenant root = %q", got)
	}
}
