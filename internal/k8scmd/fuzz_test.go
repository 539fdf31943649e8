package k8scmd_test

// In the external test package because llm, through scenario, imports
// k8scmd.

import (
	"strings"
	"testing"

	"cloudeval/internal/dataset"
	"cloudeval/internal/k8scmd"
	"cloudeval/internal/kubesim"
	"cloudeval/internal/llm"
	"cloudeval/internal/shell"
)

// readEveryKind reads every kind the simulator serves back through the
// forms the corpus reads with — jsonpath over each kind's list, its
// status documents and its names, the Services table, describe — by
// every plural and short name of kubesim.Resources (`get po` used to
// panic) and by one name no row knows.
var readEveryKind = `for kind in ` + kindNames() + ` widgets; do
  kubectl get $kind
  kubectl get $kind -o jsonpath='{.items[*].metadata.name}'
  kubectl get $kind -o jsonpath='{.items[*].status}'
  kubectl get $kind -o jsonpath='{.items[0].spec..name}{.items..labels}'
  kubectl describe $kind $(kubectl get $kind -o jsonpath='{.items[0].metadata.name}')
done
`

func kindNames() string {
	var names []string
	for _, r := range kubesim.Resources {
		names = append(names, r.Plural)
		names = append(names, r.ShortNames...)
	}
	return strings.Join(names, " ")
}

// readEveryPod reads each pod the way scripts that captured its name do.
const readEveryPod = `for p in $(kubectl get pods -o jsonpath='{.items[*].metadata.name}'); do
  kubectl logs $p
  kubectl get pod $p -o jsonpath='{.status.phase}{.status.hostIP}{.spec.containers[*].image}'
done
kubectl get all -o jsonpath='{.items}'
`

// everyVerbScript applies the answer and then reads it back through
// every kubectl path a unit test takes: each kind every way
// readEveryKind does, the waits, each pod, logs, and delete by file.
var everyVerbScript = "kubectl apply -f labeled_code.yaml\n" + readEveryKind + `kubectl wait --for=condition=Ready pod --all --timeout=30s
kubectl wait --for=condition=Available deployment --all --timeout=30s
kubectl wait --for=condition=Complete job --all --timeout=30s
for d in $(kubectl get deployment -o jsonpath='{.items[*].metadata.name}'); do
  kubectl rollout status deployment/$d --timeout=30s
done
` + readEveryPod + `kubectl delete -f labeled_code.yaml
kubectl get pods -o jsonpath='{.items[*].metadata.name}'
`

// FuzzKubectlOnAnswer: labeled_code.yaml is the model's answer, so
// anything. Whatever it holds, applying it and reading the cluster back
// every way the corpus's scripts do must return — no panic, and within
// the step budget no hang (one shows as the fuzzer's, or go test's, own
// timeout). Seeded with what the zoo answers to the
// Kubernetes problems: the corruptors' output is the adversarial corpus.
func FuzzKubectlOnAnswer(f *testing.F) {
	seen := map[string]bool{}
	for _, p := range dataset.Generate() {
		if p.Category != dataset.Kubernetes {
			continue
		}
		for _, m := range llm.Models {
			if answer := llm.Postprocess(m.Generate(p, llm.GenOptions{})); !seen[answer] {
				seen[answer] = true
				f.Add(answer)
			}
		}
	}
	for _, s := range []string{
		"", "kind: Pod", "kind: Pod\nmetadata:\n  name: [a, b]\nspec: 3\n", "- kind: Pod\n", "kind: {a: b}\nmetadata: x\n",
		"apiVersion: v1\nkind: List\nitems:\n- kind: Pod\n  metadata: {name: p}\n  spec: {containers: [{name: c, image: 7}]}\n",
		"kind: Deployment\nmetadata: {name: d}\nspec: {replicas: -3, template: {spec: {containers: x}}}\n",
		"kind: Service\nmetadata: {name: s}\nspec: {ports: [{port: x, nodePort: 1e9}], selector: []}\n",
		"kind: Job\nmetadata: {name: j}\nspec: {completions: 99999999999, template: ~}\n---\nkind: CronJob\nmetadata: {name: c}\nspec: {schedule: 5}\n",
	} {
		f.Add(s)
	}
	prog, err := shell.Parse(everyVerbScript)
	if err != nil {
		f.Fatalf("the script itself does not parse: %v", err)
	}
	f.Fuzz(func(t *testing.T, answer string) {
		env := k8scmd.NewEnv()
		env.Shell.MaxSteps = 2000
		env.Shell.FS["labeled_code.yaml"] = answer
		env.Shell.Exec(prog)
	})
}
