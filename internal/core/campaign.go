package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
)

// A campaign is a checkpointed experiment run rooted at a directory:
// each completed experiment's output lands in <dir>/<id>.txt, and a
// manifest records which experiment IDs completed. A re-run of the
// same campaign — after a crash, an interrupt, or in a fresh process —
// replays completed experiments from their files and executes only the
// remainder. Paired with a persistent evaluation store under the
// engine, a resumed campaign costs neither generation nor execution.

// ManifestName is the campaign checkpoint file inside a campaign
// directory.
const ManifestName = "manifest.json"

// TenantDefault is the implicit tenant every request without an
// X-Tenant header (or ?tenant= parameter) belongs to. Its campaign
// checkpoints keep the historical single-tenant layout, so pre-tenancy
// data directories resume unchanged.
const TenantDefault = "default"

// ValidTenant reports whether name is a legal tenant identifier: 1-64
// characters of letters, digits, '-' and '_', starting with a letter or
// digit. Tenant names become checkpoint directory components, so the
// grammar deliberately excludes separators, dots and anything else a
// path could be built from.
func ValidTenant(name string) bool {
	if len(name) == 0 || len(name) > 64 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case (c == '-' || c == '_') && i > 0:
		default:
			return false
		}
	}
	return true
}

// CampaignRoot returns the campaign checkpoint root for a tenant under
// dataDir: the historical <dataDir>/campaigns for the default tenant
// (so pre-tenancy daemons' on-disk campaigns stay resumable in place),
// <dataDir>/tenants/<tenant>/campaigns for every other tenant. Callers
// must have validated tenant with ValidTenant.
func CampaignRoot(dataDir, tenant string) string {
	if tenant == "" || tenant == TenantDefault {
		return filepath.Join(dataDir, "campaigns")
	}
	return filepath.Join(dataDir, "tenants", tenant, "campaigns")
}

// campaignManifest is a campaign's record: the experiments it was last
// run with and, for each completed experiment, its output file name
// (relative to the campaign directory). Manifests written before
// Experiments existed lack it; they still resume.
type campaignManifest struct {
	Experiments []string          `json:"experiments,omitempty"`
	Completed   map[string]string `json:"completed"`
}

// CampaignReport summarizes one RunCampaign call.
type CampaignReport struct {
	// Ran lists experiments executed this run; Skipped lists experiments
	// replayed from a previous run's checkpoint.
	Ran     []string
	Skipped []string
}

// Campaign is what a campaign directory records.
type Campaign struct {
	// Experiments are the IDs the campaign was last run with; empty for
	// a directory with no manifest or one written before they were
	// recorded.
	Experiments []string
	// Completed lists the experiments with a checkpointed output, in
	// the order of Experiments and then, for any other, in presentation
	// order; Outputs holds those outputs.
	Completed []string
	Outputs   map[string]string
}

// ReadCampaign reads the campaign rooted at dir. A missing or empty
// manifest is an empty campaign, not an error, and an experiment whose
// output file is missing or empty is not completed: RunCampaign
// re-runs it.
func ReadCampaign(dir string) (Campaign, error) {
	var m campaignManifest
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	switch {
	case os.IsNotExist(err), err == nil && len(data) == 0:
		// An empty manifest is what a power loss between creating and
		// filling one can leave: it reads as missing.
	case err != nil:
		return Campaign{}, err
	default:
		if err := json.Unmarshal(data, &m); err != nil {
			return Campaign{}, fmt.Errorf("core: corrupt campaign manifest: %w", err)
		}
	}
	c := Campaign{
		Experiments: m.Experiments,
		Completed:   make([]string, 0, len(m.Completed)),
		Outputs:     make(map[string]string, len(m.Completed)),
	}
	// The campaign's own order first, then any checkpoint a run over
	// another set left, in presentation order; each ID once.
	for _, id := range slices.Concat(m.Experiments, ExperimentIDs) {
		name, ok := m.Completed[id]
		if !ok {
			continue
		}
		delete(m.Completed, id)
		if data, err := os.ReadFile(filepath.Join(dir, name)); err == nil && len(data) > 0 {
			c.Completed = append(c.Completed, id)
			c.Outputs[id] = string(data)
		}
	}
	return c, nil
}

func (m campaignManifest) write(dir string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	if err := writeAtomic(filepath.Join(dir, ManifestName), data); err != nil {
		return fmt.Errorf("core: checkpoint manifest: %w", err)
	}
	return nil
}

// writeAtomic writes data to path via a synced temp file and a rename,
// so a crash mid-checkpoint leaves the previous checkpoint intact and a
// power loss after the rename cannot leave the new one empty.
func writeAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// CheckExperiments reports the first ID in ids that is not an
// experiment or that repeats an earlier one.
func CheckExperiments(ids []string) error {
	for i, id := range ids {
		if !slices.Contains(ExperimentIDs, id) {
			return fmt.Errorf("unknown experiment %q", id)
		}
		if slices.Contains(ids[:i], id) {
			return fmt.Errorf("experiment %q listed twice", id)
		}
	}
	return nil
}

// RunCampaign executes the given experiment IDs (all of ExperimentIDs
// when ids is nil) as a resumable campaign rooted at dir, handing each
// experiment's output to onDone, when non-nil, in order: replayed from
// checkpoint files for experiments a previous run completed, rendered
// by b.Experiment otherwise. A replayed checkpoint is the campaign's
// record, possibly from an older binary, so it is not kept as b's
// rendering. The manifest records ids before the first experiment runs
// and is checkpointed atomically after every experiment, so an
// interrupted campaign resumes exactly where it died. ids are checked
// with CheckExperiments before dir is touched.
func (b *Benchmark) RunCampaign(dir string, ids []string, onDone func(id, out string)) (CampaignReport, error) {
	var report CampaignReport
	if ids == nil {
		ids = ExperimentIDs
	}
	if err := CheckExperiments(ids); err != nil {
		return report, fmt.Errorf("core: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return report, err
	}
	// The manifest promises at least as much as the files deliver,
	// never more: it is rebuilt from what ReadCampaign found.
	rec, err := ReadCampaign(dir)
	if err != nil {
		return report, err
	}
	manifest := campaignManifest{Experiments: ids, Completed: make(map[string]string, len(rec.Completed))}
	for _, id := range rec.Completed {
		manifest.Completed[id] = id + ".txt"
	}
	if !slices.Equal(rec.Experiments, ids) {
		if err := manifest.write(dir); err != nil {
			return report, err
		}
	}

	for _, id := range ids {
		out, skipped := rec.Outputs[id]
		if skipped {
			report.Skipped = append(report.Skipped, id)
		} else {
			if out, err = b.Experiment(id); err != nil {
				return report, fmt.Errorf("core: generate %s: %w", id, err)
			}
			name := id + ".txt"
			if err := writeAtomic(filepath.Join(dir, name), []byte(out)); err != nil {
				return report, fmt.Errorf("core: checkpoint %s: %w", id, err)
			}
			manifest.Completed[id] = name
			if err := manifest.write(dir); err != nil {
				return report, err
			}
			report.Ran = append(report.Ran, id)
		}
		if onDone != nil {
			onDone(id, out)
		}
	}
	return report, nil
}
