package boost

import (
	"fmt"
	"sort"
	"strings"

	"cloudeval/internal/engine"
	"cloudeval/internal/score"
)

// FeatureNames are the predictor's inputs: the five text-level and
// YAML-aware metrics (§4.4 predicts the sixth, the unit test, from
// them).
var FeatureNames = []string{"bleu", "edit_distance", "exact_match", "kv_exact", "kv_wildcard"}

// FeatureVector extracts the predictor features from a problem score.
func FeatureVector(s score.ProblemScore) []float64 {
	return []float64{s.BLEU, s.EditDist, s.ExactMatch, s.KVExact, s.KVWildcard}
}

// LeaveOneOutResult is one held-out model's prediction (Figure 9a).
type LeaveOneOutResult struct {
	Model        string
	Predicted    float64 // sum of predicted pass probabilities
	GroundTruth  float64 // actual unit-test passes
	ErrorPercent float64
}

// LeaveOneModelOut reproduces §4.4's protocol: for each model, train on
// the other eleven models' scored answers and predict the held-out
// model's unit-test score. The twelve independent hold-out trainings
// fan out on eng's scheduler; results land in model-name order, so the
// output is identical to the serial protocol.
func LeaveOneModelOut(eng *engine.Engine, raw map[string][]score.ProblemScore, cfg Config) ([]LeaveOneOutResult, error) {
	models := make([]string, 0, len(raw))
	for m := range raw {
		models = append(models, m)
	}
	sort.Strings(models)
	out := make([]LeaveOneOutResult, len(models))
	errs := make([]error, len(models))
	eng.ForEach(len(models), func(i int) {
		held := models[i]
		var rows [][]float64
		var labels []float64
		for _, m := range models {
			if m == held {
				continue
			}
			for _, s := range raw[m] {
				rows = append(rows, FeatureVector(s))
				labels = append(labels, s.UnitTest)
			}
		}
		model, err := Train(rows, labels, FeatureNames, cfg)
		if err != nil {
			errs[i] = err
			return
		}
		pred, truth := 0.0, 0.0
		for _, s := range raw[held] {
			pred += model.PredictProba(FeatureVector(s))
			truth += s.UnitTest
		}
		errPct := 0.0
		if truth > 0 {
			errPct = (pred - truth) / truth * 100
			if errPct < 0 {
				errPct = -errPct
			}
		}
		out[i] = LeaveOneOutResult{Model: held, Predicted: pred, GroundTruth: truth, ErrorPercent: errPct}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].GroundTruth > out[j].GroundTruth })
	return out, nil
}

// FormatFigure9A renders the predicted-vs-truth table.
func FormatFigure9A(results []LeaveOneOutResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %10s %12s %8s\n", "Model", "Predicted", "GroundTruth", "Err%")
	for _, r := range results {
		fmt.Fprintf(&b, "%-24s %10.1f %12.0f %7.1f%%\n", r.Model, r.Predicted, r.GroundTruth, r.ErrorPercent)
	}
	return b.String()
}

// GlobalImportance trains on all models' scores and reports mean |SHAP|
// per feature (Figure 9b). The exact per-instance Shapley evaluations —
// the dominant cost, 2^5 coalition passes per sampled row — are
// scheduled on eng. Training data is assembled in model-name order so
// the fitted ensemble is deterministic.
func GlobalImportance(eng *engine.Engine, raw map[string][]score.ProblemScore, cfg Config, sample int) (map[string]float64, error) {
	models := make([]string, 0, len(raw))
	for m := range raw {
		models = append(models, m)
	}
	sort.Strings(models)
	var rows [][]float64
	var labels []float64
	for _, m := range models {
		for _, s := range raw[m] {
			rows = append(rows, FeatureVector(s))
			labels = append(labels, s.UnitTest)
		}
	}
	model, err := Train(rows, labels, FeatureNames, cfg)
	if err != nil {
		return nil, err
	}
	if sample <= 0 || sample > len(rows) {
		sample = len(rows)
	}
	stride := len(rows) / sample
	if stride < 1 {
		stride = 1
	}
	var sampled [][]float64
	for i := 0; i < len(rows); i += stride {
		sampled = append(sampled, rows[i])
	}
	imp := model.meanAbsSHAP(sampled, eng.ForEach)
	out := make(map[string]float64, len(FeatureNames))
	for i, name := range FeatureNames {
		out[name] = imp[i]
	}
	return out, nil
}

// FormatFigure9B renders feature importances sorted descending.
func FormatFigure9B(importance map[string]float64) string {
	type kv struct {
		name string
		v    float64
	}
	var items []kv
	for k, v := range importance {
		items = append(items, kv{k, v})
	}
	sort.Slice(items, func(i, j int) bool { return items[i].v > items[j].v })
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %12s\n", "Feature", "mean |SHAP|")
	for _, it := range items {
		fmt.Fprintf(&b, "%-16s %12.4f\n", it.name, it.v)
	}
	return b.String()
}
