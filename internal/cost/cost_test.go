package cost

import (
	"strings"
	"testing"

	"cloudeval/internal/augment"
	"cloudeval/internal/dataset"
	"cloudeval/internal/engine"
	"cloudeval/internal/evalcluster"
)

func TestInferenceCostOrdering(t *testing.T) {
	problems := augment.ExpandCorpus(dataset.Generate())
	gpt := InferenceCost(InferenceGPT35, problems)
	llama := InferenceCost(InferenceLlama, problems)
	if gpt <= 0 || llama <= 0 {
		t.Fatalf("costs must be positive: %v %v", gpt, llama)
	}
	// The paper: hosted Llama ($2.90) costs more than the GPT-3.5 API
	// ($0.60) for a full run.
	if llama <= gpt {
		t.Errorf("hosted llama $%.2f should exceed gpt-3.5 API $%.2f", llama, gpt)
	}
	if gpt > 5 {
		t.Errorf("gpt-3.5 inference = $%.2f, expected a few dollars at most", gpt)
	}
}

func TestEvalCostOptions(t *testing.T) {
	problems := augment.ExpandCorpus(dataset.Generate())
	jobs := evalcluster.JobsFromProblems(engine.New(), problems)
	spot1, dur1 := EvalCost(EvalSpot1, jobs)
	spot64, dur64 := EvalCost(EvalSpot64, jobs)
	std64, _ := EvalCost(EvalStd64, jobs)
	// A single spot instance is the cheapest but slowest option.
	if !(spot1 < spot64 && spot64 < std64) {
		t.Errorf("cost ordering broken: spot1=%.2f spot64=%.2f std64=%.2f", spot1, spot64, std64)
	}
	if dur64 >= dur1 {
		t.Errorf("64 workers (%.2fh) should beat 1 worker (%.2fh)", dur64.Hours(), dur1.Hours())
	}
}

func TestTable3EndToEnd(t *testing.T) {
	problems := augment.ExpandCorpus(dataset.Generate())
	jobs := evalcluster.JobsFromProblems(engine.New(), problems)
	tbl := ComputeTable3(problems, jobs)
	if tbl.MinTotal <= 0 || tbl.MaxTotal <= tbl.MinTotal {
		t.Fatalf("total range = %.2f..%.2f", tbl.MinTotal, tbl.MaxTotal)
	}
	// The paper's range is $1.31 - $8.41; ours must be the same order of
	// magnitude (single dollars to low tens).
	if tbl.MinTotal > 10 || tbl.MaxTotal > 60 {
		t.Errorf("cost range $%.2f-$%.2f out of scale", tbl.MinTotal, tbl.MaxTotal)
	}
	out := tbl.Format()
	for _, want := range []string{"GPT-3.5", "GCP spot x1", "GCP std x64", "Total cost range"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 3 missing %q:\n%s", want, out)
		}
	}
}

// TestMeteredCostMatchesEstimator pins metered pricing to the corpus
// estimator: feeding MeteredCost the exact token counts InferenceCost
// derives from the corpus must reproduce its price, for both API and
// hosted pricing models — the contract that lets Table 3's inference
// numbers come from the dispatcher's accounted usage.
func TestMeteredCostMatchesEstimator(t *testing.T) {
	problems := augment.ExpandCorpus(dataset.Generate())
	var inToks, outToks int
	for _, p := range problems {
		inToks += p.QuestionTokens() + 120
		outToks += p.SolutionTokens()
	}
	for _, opt := range []InferenceOption{InferenceGPT35, InferenceLlama} {
		est := InferenceCost(opt, problems)
		met := MeteredCost(opt, inToks, outToks)
		if diff := met - est; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%s: metered $%.6f != estimated $%.6f", opt.Name, met, est)
		}
	}
	if MeteredCost(InferenceGPT35, 0, 0) != 0 {
		t.Error("zero usage must price to zero")
	}
	// More completion tokens cost more at API rates.
	if MeteredCost(InferenceGPT35, 1000, 2000) <= MeteredCost(InferenceGPT35, 1000, 1000) {
		t.Error("completion tokens must be priced")
	}
}
