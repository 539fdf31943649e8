// Quickstart: load the dataset, evaluate one candidate YAML answer with
// all six metrics, and print the zero-shot scores of one model on a
// problem slice.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"os"

	"cloudeval"
	"cloudeval/internal/engine"
	"cloudeval/internal/inference"
	"cloudeval/internal/llm"
	"cloudeval/internal/score"
)

func main() {
	problems := cloudeval.Dataset()
	fmt.Printf("CloudEval-YAML: %d hand-written problems\n\n", len(problems))

	// Pick the Figure 1-style RoleBinding problem and score a candidate.
	var p cloudeval.Problem
	for _, cand := range problems {
		if cand.Subcategory == "others" {
			p = cand
			break
		}
	}
	fmt.Printf("Problem %s (%s):\n%s\n\n", p.ID, p.Source, p.Question)

	answer := cloudeval.CleanReference(p) // a perfect answer
	s := cloudeval.ScoreAnswer(p, answer)
	fmt.Println("Scores for the reference answer:")
	fmt.Printf("  bleu=%.3f edit=%.3f exact=%.0f kv_exact=%.0f kv_wildcard=%.3f unit_test=%.0f\n\n",
		s.BLEU, s.EditDist, s.ExactMatch, s.KVExact, s.KVWildcard, s.UnitTest)

	// Now run a simulated model over the first 30 problems: unit tests
	// on an engine, generations through a dispatcher over exactly the
	// models evaluated. A model the dispatcher lacks scores empty
	// answers and latches the cause in Err, so check it before printing.
	model, _ := llm.ByName("gpt-4")
	disp := inference.NewDispatcher(inference.NewSim([]llm.Model{model}))
	scores := score.NewEvaluator(engine.New(), disp).Model(model, problems[:30], llm.GenOptions{})
	if err := disp.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
	passed := 0
	for _, sc := range scores {
		if sc.UnitTest == 1 {
			passed++
		}
	}
	agg := score.Aggregate(model, scores)
	fmt.Printf("%s on %d problems: %d passed, avg kv_wildcard %.3f, avg bleu %.3f\n",
		model.Name, len(scores), passed, agg.KVWildcard, agg.BLEU)
}
