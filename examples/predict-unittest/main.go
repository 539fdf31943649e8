// predict-unittest reproduces §4.4 on a corpus slice: train the
// gradient-boosted classifier to predict unit-test outcomes from the
// five cheap metrics, evaluate leave-one-model-out, and print SHAP
// feature importance.
//
// Run: go run ./examples/predict-unittest
package main

import (
	"fmt"
	"os"

	"cloudeval/internal/boost"
	"cloudeval/internal/dataset"
	"cloudeval/internal/engine"
	"cloudeval/internal/inference"
	"cloudeval/internal/llm"
	"cloudeval/internal/score"
)

func main() {
	problems := dataset.Generate()
	fmt.Printf("scoring %d problems under %d models...\n\n", len(problems), len(llm.Models))

	// One engine and one dispatcher over exactly the models scored. A
	// model the dispatcher lacks would score empty answers and latch the
	// cause in Err, so check it before training on the scores.
	eng := engine.New()
	disp := inference.NewDispatcher(inference.NewSim(llm.Models))
	_, raw := score.NewEvaluator(eng, disp).Benchmark(llm.Models, problems)
	if err := disp.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "predict-unittest:", err)
		os.Exit(1)
	}

	results, err := boost.LeaveOneModelOut(eng, raw, boost.DefaultConfig())
	if err != nil {
		panic(err)
	}
	fmt.Println("(a) leave-one-model-out unit-test prediction")
	fmt.Println(boost.FormatFigure9A(results))

	imp, err := boost.GlobalImportance(eng, raw, boost.DefaultConfig(), 400)
	if err != nil {
		panic(err)
	}
	fmt.Println("(b) SHAP feature importance")
	fmt.Println(boost.FormatFigure9B(imp))
	fmt.Println("kv_wildcard should dominate, as in the paper's Figure 9(b): the")
	fmt.Println("label-aware structural match is the best cheap proxy for passing.")
}
