package k8scmd_test

import (
	"sync"
	"testing"

	"cloudeval/internal/k8scmd"
	"cloudeval/internal/kubesim"
	"cloudeval/internal/yamlx"
)

const statusDocsManifest = `apiVersion: apps/v1
kind: Deployment
metadata: {name: web, labels: {app: web}}
spec:
  replicas: 2
  selector: {matchLabels: {app: web}}
  template:
    metadata: {labels: {app: web}}
    spec:
      containers:
      - name: c
        image: nginx
        ports: [{containerPort: 80}]
---
apiVersion: v1
kind: Pod
metadata: {name: broken}
spec:
  containers: [{name: c, image: "not a valid image"}]
---
apiVersion: batch/v1
kind: Job
metadata: {name: once}
spec:
  template:
    spec:
      containers: [{name: c, image: busybox}]
---
apiVersion: apps/v1
kind: DaemonSet
metadata: {name: agent}
spec:
  selector: {matchLabels: {app: agent}}
  template:
    metadata: {labels: {app: agent}}
    spec:
      containers: [{name: c, image: fluentd}]
---
apiVersion: v1
kind: Service
metadata: {name: web}
spec:
  type: LoadBalancer
  selector: {app: web}
  ports: [{port: 80}]
---
apiVersion: networking.k8s.io/v1
kind: Ingress
metadata: {name: edge}
spec:
  rules:
  - http:
      paths:
      - path: /
        pathType: Prefix
        backend: {service: {name: web, port: {number: 80}}}
`

// TestStatusDocsNeverWritten holds every reader of a status document to
// the contract that lets one document be handed out again and again:
// it is never written. The documents are marshalled, every read verb
// the scripts use is run over them — from several goroutines at once,
// each with a shell of its own on the one cluster, so that under -race
// a write by the table, YAML or jsonpath renderer is a reported race —
// and they are marshalled again.
func TestStatusDocsNeverWritten(t *testing.T) {
	env := k8scmd.NewEnv()
	env.Shell.FS["labeled_code.yaml"] = statusDocsManifest
	if res, err := env.Shell.Run("kubectl apply -f labeled_code.yaml\nsleep 10"); err != nil || res.ExitCode != 0 {
		t.Fatalf("apply: %v, %+v", err, res)
	}
	kinds := []*kubesim.Resource{kubesim.Pod, kubesim.Deployment, kubesim.ReplicaSet, kubesim.DaemonSet, kubesim.Job, kubesim.Service, kubesim.Ingress}
	snapshot := func() (docs []*yamlx.Node, text []string) {
		for _, kind := range kinds {
			for _, doc := range env.Cluster.List(kind, "*", nil) {
				docs = append(docs, doc)
				text = append(text, yamlx.MarshalString(doc))
			}
		}
		return docs, text
	}
	docs, before := snapshot()
	if len(docs) < 8 {
		t.Fatalf("only %d status documents to check", len(docs))
	}

	read := func(e *k8scmd.Env) {
		if _, err := e.Shell.Run(readEveryKind + readEveryPod); err != nil {
			t.Error(err)
		}
	}
	// One pass alone first: it leaves the cluster with nothing lazy left
	// to fill in (the status documents), so that the concurrent passes
	// below only read it.
	read(env)

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		reader := k8scmd.NewEnv()
		reader.Cluster = env.Cluster
		wg.Add(1)
		go func() {
			defer wg.Done()
			read(reader)
		}()
	}
	wg.Wait()

	again, after := snapshot()
	for i := range docs {
		if again[i] != docs[i] {
			t.Errorf("document %d was rebuilt: the read verbs changed the cluster", i)
		}
		if after[i] != before[i] {
			t.Errorf("a read verb wrote status document %d:\n--- before\n%s--- after\n%s", i, before[i], after[i])
		}
	}
}
