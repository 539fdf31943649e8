package cloudeval_test

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"cloudeval"
	"cloudeval/internal/core"
	"cloudeval/internal/dataset"
	"cloudeval/internal/engine"
	"cloudeval/internal/inference"
	"cloudeval/internal/llm"
	"cloudeval/internal/score"
	"cloudeval/internal/store"
)

// Load the dataset, score one candidate answer with all six metrics,
// then score one simulated model on a slice of the problems.
func Example() {
	problems := cloudeval.Dataset()
	fmt.Printf("CloudEval-YAML: %d hand-written problems\n\n", len(problems))

	// The Figure 1-style problem: a Namespace with a label.
	var p cloudeval.Problem
	for _, cand := range problems {
		if cand.Subcategory == "others" {
			p = cand
			break
		}
	}
	fmt.Printf("Problem %s (%s):\n%s\n\n", p.ID, p.Source, p.Question)

	s := cloudeval.ScoreAnswer(p, cloudeval.CleanReference(p)) // a perfect answer
	fmt.Println("Scores for the reference answer:")
	fmt.Printf("  bleu=%.3f edit=%.3f exact=%.0f kv_exact=%.0f kv_wildcard=%.3f unit_test=%.0f\n\n",
		s.BLEU, s.EditDist, s.ExactMatch, s.KVExact, s.KVWildcard, s.UnitTest)

	// Unit tests run on an engine, generations go through a dispatcher
	// over exactly the models evaluated. A model the dispatcher lacks
	// scores empty answers and latches the cause in Err.
	model, _ := llm.ByName("gpt-4")
	disp := inference.NewDispatcher(inference.NewSim([]llm.Model{model}))
	scores := score.NewEvaluator(engine.New(), disp).Model(model, problems[:30], llm.GenOptions{})
	if err := disp.Err(); err != nil {
		log.Fatal(err)
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
	// Output:
	// CloudEval-YAML: 377 hand-written problems
	//
	// Problem k8s-others-001 (kubernetes.io/docs/tasks/administer-cluster/namespaces):
	// Write a YAML manifest that creates a Namespace called "analytics" labeled team: web, so our cost reports can group workloads by owner.
	//
	// Scores for the reference answer:
	//   bleu=1.000 edit=1.000 exact=1 kv_exact=1 kv_wildcard=1.000 unit_test=1
	//
	// gpt-4 on 30 problems: 14 passed, avg kv_wildcard 0.686, avg bleu 0.777
}

// The paper's Appendix C sample #2: a LoadBalancer Service over a
// Deployment given as context. An answer of the wrong type or kind
// keeps most of the text and fails the unit test.
func ExampleScoreAnswer() {
	var p cloudeval.Problem
	for _, cand := range cloudeval.Dataset() {
		if cand.Subcategory == "service" && cand.HasContext() &&
			strings.Contains(cand.Question, "load balancer") {
			p = cand
			break
		}
	}
	fmt.Printf("Problem %s:\n%s\n\nContext:\n%s\n", p.ID, p.Question, p.ContextYAML)

	reference := cloudeval.CleanReference(p)
	printScores(p, [][2]string{
		{"correct-with-preamble", "Here is the Service you asked for:\n" + reference},
		{"clusterip-instead", strings.ReplaceAll(reference, "type: LoadBalancer", "type: ClusterIP")},
		{"wrong-kind", strings.ReplaceAll(reference, "kind: Service", "kind: ConfigMap")},
	})
	// Output:
	// Problem k8s-service-001:
	// Given the following YAML, please help me create a service with load balancer that uses the web selector, exposed on port 80. It should be accessible via browser.
	//
	// Context:
	// apiVersion: apps/v1
	// kind: Deployment
	// metadata:
	//   name: web-deployment
	// spec:
	//   replicas: 3
	//   selector:
	//     matchLabels:
	//       app: web
	//   template:
	//     metadata:
	//       labels:
	//         app: web
	//     spec:
	//       containers:
	//       - name: web-container
	//         image: nginx:latest
	//         ports:
	//         - containerPort: 80
	//
	// candidate                  bleu   edit   kv_wild unit_test   verdict
	// correct-with-preamble     1.000  1.000     1.000         1      PASS
	// clusterip-instead         0.968  0.917     0.778         0      FAIL
	// wrong-kind                0.918  0.917     0.778         0      FAIL
}

// A Docker Compose problem, the first family beyond the paper's: the
// unit test runs in a simulated Compose project, and the wrong cache
// image fails it as the wrong Service type fails Kubernetes's.
func ExampleScoreAnswer_compose() {
	var p cloudeval.Problem
	for _, cand := range cloudeval.Dataset() {
		if cand.Subcategory == "compose" && strings.Contains(cand.ReferenceYAML, "redis:7") {
			p = cand
			break
		}
	}
	fmt.Printf("Problem %s:\n%s\n\n", p.ID, p.Question)

	reference := cloudeval.CleanReference(p)
	printScores(p, [][2]string{
		{"correct-with-preamble", "Here is the Compose file you asked for:\n" + reference},
		{"wrong-cache-image", strings.ReplaceAll(reference, "redis:7", "memcached:1.6")},
		{"k8s-manifest-instead", "apiVersion: v1\nkind: Pod\nmetadata:\n  name: web\nspec:\n  containers:\n  - name: web\n    image: nginx:latest\n"},
	})
	// Output:
	// Problem compose-compose-002:
	// Our "cache-app" app needs a Compose file with two services: "cache-app" (image node:20-alpine, host port 3010 published to container port 3000, environment variable REDIS_URL=redis://cache:6379) and "cache" (image redis:7). The app must start after the cache.
	//
	// candidate                  bleu   edit   kv_wild unit_test   verdict
	// correct-with-preamble     1.000  1.000     1.000         1      PASS
	// wrong-cache-image         0.926  0.909     0.667         0      FAIL
	// k8s-manifest-instead      0.000  0.000     0.000         0      FAIL
}

// printScores post-processes each named raw response as a model's
// would be and prints its text metrics and unit-test verdict.
func printScores(p cloudeval.Problem, candidates [][2]string) {
	fmt.Printf("%-24s %6s %6s %9s %9s %9s\n", "candidate", "bleu", "edit", "kv_wild", "unit_test", "verdict")
	for _, c := range candidates {
		s := cloudeval.ScoreAnswer(p, cloudeval.Postprocess(c[1]))
		verdict := "FAIL"
		if s.UnitTest == 1 {
			verdict = "PASS"
		}
		fmt.Printf("%-24s %6.3f %6.3f %9.3f %9.0f %9s\n", c[0], s.BLEU, s.EditDist, s.KVWildcard, s.UnitTest, verdict)
	}
}

// The reference answer passes its problem's unit test; an answer that
// is not the manifest asked for fails it.
func ExampleRunUnitTest() {
	p := cloudeval.Dataset()[0]
	fmt.Println(p.ID)
	fmt.Println("reference passes:", cloudeval.RunUnitTest(p, cloudeval.CleanReference(p)).Passed)
	fmt.Println("broken answer passes:", cloudeval.RunUnitTest(p, "not: yaml: at: all").Passed)
	// Output:
	// k8s-pod-001
	// reference passes: true
	// broken answer passes: false
}

// A campaign over a persistent store: the first run executes every
// distinct unit test and fills the store; a second benchmark, built as
// a fresh process would build it (a new engine over the reopened
// store), prints the identical Table 4 without executing one, and a
// checkpointed campaign resumes instead of recomputing.
func Example_persistentStore() {
	workDir, err := os.MkdirTemp("", "persistent-eval-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(workDir)
	storePath := filepath.Join(workDir, "eval.store")
	campaignDir := filepath.Join(workDir, "campaign")

	// A small corpus keeps the run quick; the mechanics are those of
	// the full one.
	originals := dataset.Generate()[:40]
	models := llm.Models[:4]

	// Cold store: every distinct evaluation executes.
	st, err := store.Open(storePath)
	if err != nil {
		log.Fatal(err)
	}
	bench := core.New(score.NewEvaluator(engine.New(engine.WithStore(st)),
		inference.NewDispatcher(inference.NewSim(models))), originals, models)
	fmt.Println("== cold run: Table 4 ==")
	fmt.Println(bench.Table4())
	stats := bench.Evaluator().Engine().Stats()
	fmt.Printf("cold:  %d unit tests executed, %d memory hits, %d store hits\n",
		stats.Executed, stats.CacheHits, stats.StoreHits)

	// Checkpoint part of a campaign, as a run cut short would.
	if _, err := bench.RunCampaign(campaignDir, []string{"table2"}, nil); err != nil {
		log.Fatal(err)
	}
	if err := st.Close(); err != nil {
		log.Fatal(err)
	}

	// Warm store: a new engine over the reopened store.
	st2, err := store.Open(storePath)
	if err != nil {
		log.Fatal(err)
	}
	defer st2.Close()
	fmt.Printf("\nreopened store holds %d records\n", st2.Len())
	bench2 := core.New(score.NewEvaluator(engine.New(engine.WithStore(st2)),
		inference.NewDispatcher(inference.NewSim(models))), originals, models)
	fmt.Println("== warm run: identical Table 4, zero executions ==")
	fmt.Println(bench2.Table4())
	stats = bench2.Evaluator().Engine().Stats()
	fmt.Printf("warm:  %d unit tests executed, %d store hits\n", stats.Executed, stats.StoreHits)

	// table2 replays from its checkpoint; table4 is new, and its unit
	// tests all come from the store.
	report, err := bench2.RunCampaign(campaignDir, []string{"table2", "table4"}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("campaign resume: ran %v, resumed %v from checkpoints\n", report.Ran, report.Skipped)
	// Output:
	// == cold run: Table 4 ==
	// Rank Model                    Size  Open      BLEU EditDist    Exact  KV-Exact   KV-Wild  UnitTest
	// 1    gpt-4                    ?     N        0.761    0.675    0.092     0.317     0.642     0.467
	// 2    gpt-3.5                  ?     N        0.684    0.621    0.067     0.208     0.531     0.400
	// 3    palm-2-bison             ?     N        0.672    0.601    0.025     0.237     0.549     0.375
	// 4    llama-2-70b-chat         70B   Y        0.642    0.648    0.000     0.050     0.376     0.100
	//
	// cold:  254 unit tests executed, 186 memory hits, 0 store hits
	//
	// reopened store holds 254 records
	// == warm run: identical Table 4, zero executions ==
	// Rank Model                    Size  Open      BLEU EditDist    Exact  KV-Exact   KV-Wild  UnitTest
	// 1    gpt-4                    ?     N        0.761    0.675    0.092     0.317     0.642     0.467
	// 2    gpt-3.5                  ?     N        0.684    0.621    0.067     0.208     0.531     0.400
	// 3    palm-2-bison             ?     N        0.672    0.601    0.025     0.237     0.549     0.375
	// 4    llama-2-70b-chat         70B   Y        0.642    0.648    0.000     0.050     0.376     0.100
	//
	// warm:  0 unit tests executed, 254 store hits
	// campaign resume: ran [table4], resumed [table2] from checkpoints
}

// The §4.2 pass@k study on a slice of the corpus: k samples per problem
// at temperature 0.75, a problem counting once any sample passes. At
// roughly 1/30 of GPT-4's per-token price, GPT-3.5 with a few samples
// matches GPT-4 with one.
func Example_passAtK() {
	problems := dataset.Generate()[:120]
	const maxK = 8
	const temperature = 0.75

	fmt.Printf("pass@k over %d problems (temperature %.2f)\n\n", len(problems), temperature)
	fmt.Printf("%-20s", "k")
	for k := 1; k <= maxK; k++ {
		fmt.Printf("%5d", k)
	}
	fmt.Println()

	// One engine and one dispatcher over exactly the models sampled.
	names := []string{"gpt-4", "gpt-3.5", "llama-2-70b-chat"}
	models := make([]llm.Model, len(names))
	for i, name := range names {
		models[i], _ = llm.ByName(name)
	}
	disp := inference.NewDispatcher(inference.NewSim(models))
	ev := score.NewEvaluator(engine.New(), disp)

	series := map[string][]int{}
	for i, name := range names {
		s := ev.PassAtK(models[i], problems, maxK, temperature)
		if err := disp.Err(); err != nil {
			log.Fatal(err)
		}
		series[name] = s
		fmt.Printf("%-20s", name)
		for _, v := range s {
			fmt.Printf("%5d", v)
		}
		fmt.Println()
	}

	gpt4At1 := series["gpt-4"][0]
	fmt.Printf("\ngpt-4 pass@1 = %d\n", gpt4At1)
	for k := 1; k <= maxK; k++ {
		v := series["gpt-3.5"][k-1]
		if v < gpt4At1 {
			fmt.Printf("gpt-3.5 pass@%d = %d\n", k, v)
			continue
		}
		fmt.Printf("gpt-3.5 pass@%d = %d  <- matches gpt-4@1 at ~1/30 the per-sample price\n", k, v)
		break
	}
	// Output:
	// pass@k over 120 problems (temperature 0.75)
	//
	// k                       1    2    3    4    5    6    7    8
	// gpt-4                  63   71   73   74   75   76   76   76
	// gpt-3.5                54   58   58   63   67   67   67   68
	// llama-2-70b-chat       15   15   16   16   16   16   16   16
	//
	// gpt-4 pass@1 = 63
	// gpt-3.5 pass@1 = 54
	// gpt-3.5 pass@2 = 58
	// gpt-3.5 pass@3 = 58
	// gpt-3.5 pass@4 = 63  <- matches gpt-4@1 at ~1/30 the per-sample price
}
