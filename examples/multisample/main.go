// multisample reproduces the §4.2 pass@k study on a slice of the
// corpus: generating k samples per problem at temperature and counting
// problems where any sample passes, plus the cost-effectiveness
// comparison behind "GPT-3.5 with 6 samples can beat GPT-4 with one".
//
// Run: go run ./examples/multisample
package main

import (
	"fmt"
	"os"

	"cloudeval/internal/analysis"
	"cloudeval/internal/dataset"
	"cloudeval/internal/engine"
	"cloudeval/internal/inference"
	"cloudeval/internal/llm"
)

func main() {
	problems := dataset.Generate()[:120]
	const maxK = 8
	const temperature = 0.75

	fmt.Printf("pass@k over %d problems (temperature %.2f)\n\n", len(problems), temperature)
	fmt.Printf("%-20s", "k")
	for k := 1; k <= maxK; k++ {
		fmt.Printf("%5d", k)
	}
	fmt.Println()

	// One engine and one dispatcher over exactly the models sampled. A
	// model the dispatcher lacks would score empty answers and latch the
	// cause in Err, so each series is checked before it is printed.
	names := []string{"gpt-4", "gpt-3.5", "llama-2-70b-chat"}
	models := make([]llm.Model, len(names))
	for i, name := range names {
		models[i], _ = llm.ByName(name)
	}
	eng := engine.New()
	disp := inference.NewDispatcher(inference.NewSim(models))

	series := map[string][]int{}
	for i, name := range names {
		s := analysis.PassAtKVia(eng, disp, models[i], problems, maxK, temperature)
		if err := disp.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "multisample:", err)
			os.Exit(1)
		}
		series[name] = s
		fmt.Printf("%-20s", name)
		for _, v := range s {
			fmt.Printf("%5d", v)
		}
		fmt.Println()
	}

	// Cost-effectiveness: GPT-4 is roughly 30x the per-token price of
	// GPT-3.5 (§4.2 footnote), so compare gpt-3.5@k against gpt-4@1.
	gpt4At1 := series["gpt-4"][0]
	fmt.Printf("\ngpt-4 pass@1 = %d\n", gpt4At1)
	for k := 1; k <= maxK; k++ {
		v := series["gpt-3.5"][k-1]
		marker := ""
		if v >= gpt4At1 {
			marker = "  <- matches gpt-4@1 at ~1/30 the per-sample price"
		}
		fmt.Printf("gpt-3.5 pass@%d = %d%s\n", k, v, marker)
		if marker != "" {
			break
		}
	}
}
