package core

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
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

// campaignManifest maps completed experiment IDs to their output file
// names (relative to the campaign directory).
type campaignManifest struct {
	Completed map[string]string `json:"completed"`
}

// CampaignReport summarizes one RunCampaign call.
type CampaignReport struct {
	// Ran lists experiments executed this run; Skipped lists experiments
	// replayed from a previous run's checkpoint.
	Ran     []string
	Skipped []string
}

// CampaignCompleted reads a campaign directory's manifest and reports
// which experiment IDs have completed. A missing manifest is an empty
// campaign, not an error.
func CampaignCompleted(dir string) ([]string, error) {
	m, err := loadManifest(dir)
	if err != nil {
		return nil, err
	}
	ids := make([]string, 0, len(m.Completed))
	for _, id := range ExperimentIDs {
		if _, ok := m.Completed[id]; ok {
			ids = append(ids, id)
		}
	}
	return ids, nil
}

func loadManifest(dir string) (campaignManifest, error) {
	m := campaignManifest{Completed: map[string]string{}}
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if os.IsNotExist(err) {
		return m, nil
	}
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("core: corrupt campaign manifest: %w", err)
	}
	if m.Completed == nil {
		m.Completed = map[string]string{}
	}
	return m, nil
}

// writeAtomic writes data to path via a temp file + rename, so a crash
// mid-checkpoint leaves the previous checkpoint intact.
func writeAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// RunCampaign executes the given experiment IDs (all of ExperimentIDs
// when ids is nil) as a resumable campaign rooted at dir, writing each
// experiment's output to w in order — replayed from checkpoint files
// for experiments a previous run completed, freshly generated
// otherwise. The manifest is checkpointed atomically after every
// experiment, so an interrupted campaign resumes exactly where it
// died.
//
// gen, when non-nil, produces fresh outputs in place of the
// benchmark's own generators, and onDone, when non-nil, is called as
// each experiment completes (id, skipped). The daemon routes campaign
// generation through its coalescing layer this way, so a campaign and
// a concurrent direct request share one computation, and surfaces live
// campaign status from the callback.
func (b *Benchmark) RunCampaign(dir string, ids []string, w io.Writer, gen func(id string) (string, error), onDone func(id string, skipped bool)) (CampaignReport, error) {
	var report CampaignReport
	if ids == nil {
		ids = ExperimentIDs
	}
	gens := b.Experiments()
	for _, id := range ids {
		if _, ok := gens[id]; !ok {
			return report, fmt.Errorf("core: unknown experiment %q", id)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return report, err
	}
	manifest, err := loadManifest(dir)
	if err != nil {
		return report, err
	}
	if w == nil {
		w = io.Discard
	}

	for _, id := range ids {
		var out string
		skipped := false
		if name, ok := manifest.Completed[id]; ok {
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err == nil {
				out = string(data)
				skipped = true
			}
			// A manifest entry whose output file vanished falls through
			// and re-runs: the manifest promises at least as much as the
			// files deliver, never more.
		}
		if !skipped {
			if gen != nil {
				var err error
				if out, err = gen(id); err != nil {
					return report, fmt.Errorf("core: generate %s: %w", id, err)
				}
			} else {
				// An experiment whose generations failed (replay-trace
				// miss, dead endpoint) scores empty answers; it must
				// fail the campaign here, not be checkpointed as
				// complete and replayed as authoritative forever. The
				// delta is over the dispatcher's counter, which the
				// whole benchmark shares, so a concurrent failing
				// campaign on the same benchmark can fail this one
				// too — conservative: a clean retry succeeds, corrupt
				// output never persists.
				disp := b.ev.Dispatcher()
				errsBefore := disp.Stats().Errors
				out = gens[id]()
				if failed := disp.Stats().Errors - errsBefore; failed > 0 {
					return report, fmt.Errorf("core: experiment %s: %d generation failures (first: %v)", id, failed, disp.Err())
				}
			}
			name := id + ".txt"
			if err := writeAtomic(filepath.Join(dir, name), []byte(out)); err != nil {
				return report, fmt.Errorf("core: checkpoint %s: %w", id, err)
			}
			manifest.Completed[id] = name
			data, err := json.MarshalIndent(manifest, "", "  ")
			if err != nil {
				return report, err
			}
			if err := writeAtomic(filepath.Join(dir, ManifestName), data); err != nil {
				return report, fmt.Errorf("core: checkpoint manifest: %w", err)
			}
		}
		if skipped {
			report.Skipped = append(report.Skipped, id)
		} else {
			report.Ran = append(report.Ran, id)
		}
		if _, err := fmt.Fprintf(w, "=== %s ===\n%s\n", id, out); err != nil {
			return report, err
		}
		if onDone != nil {
			onDone(id, skipped)
		}
	}
	return report, nil
}
