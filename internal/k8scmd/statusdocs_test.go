package k8scmd_test

import (
	"strings"
	"sync"
	"testing"

	"cloudeval/internal/helmsim"
	"cloudeval/internal/k8scmd"
	"cloudeval/internal/kubesim"
	"cloudeval/internal/shell"
	"cloudeval/internal/unittest"
	"cloudeval/internal/yamlx"
)

// execScript parses script and executes it on sh, what it writes to
// stderr gathered by a unittest.Recorder. It may run on any goroutine:
// a script that does not parse is an error, not a fatal one.
func execScript(t testing.TB, sh *shell.Interp, script string) (stdout, stderr string, code int) {
	t.Helper()
	prog, err := shell.Parse(script)
	if err != nil {
		t.Error(err)
		return "", "", 2
	}
	rec := unittest.NewRecorder(sh, nil)
	defer func() { sh.Watch = nil }()
	stdout, code = sh.Exec(prog)
	return stdout, rec.Stderr(), code
}

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
	if stdout, stderr, code := execScript(t, env.Shell, "kubectl apply -f labeled_code.yaml\nsleep 10"); code != 0 {
		t.Fatalf("apply: stdout %q, stderr %q, exit %d", stdout, stderr, code)
	}
	kinds := []*kubesim.Resource{kubesim.Pod, kubesim.Deployment, kubesim.ReplicaSet, kubesim.DaemonSet, kubesim.Job, kubesim.Service, kubesim.Ingress}
	snapshot := func() (docs []*yamlx.Node, text []string) {
		for _, kind := range kinds {
			for _, doc := range env.Cluster.List(nil, kind, "*", nil) {
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
		execScript(t, e.Shell, readEveryKind+readEveryPod)
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

// The manifests TestAppliedDocsNeverWritten applies: Services whose
// cluster IP and node ports the cluster allocates (one port names its
// own), a Deployment, a Service with no spec (refused), and a helm chart.
const (
	appliedServices = `apiVersion: v1
kind: Service
metadata: {name: np}
spec:
  type: NodePort
  selector: {app: web}
  ports: [{port: 80}, {port: 81, nodePort: 30500}]
---
apiVersion: v1
kind: Service
metadata: {name: lb}
spec:
  type: LoadBalancer
  selector: {app: web}
  ports: [{port: 443, targetPort: 80}]
---
apiVersion: apps/v1
kind: Deployment
metadata: {name: web}
spec:
  replicas: 2
  selector: {matchLabels: {app: web}}
  template:
    metadata: {labels: {app: web}}
    spec:
      containers: [{name: c, image: nginx, ports: [{containerPort: 80}]}]
`
	appliedNoSpec = `apiVersion: v1
kind: Service
metadata: {name: bare}
`
	appliedChart = `apiVersion: apps/v1
kind: Deployment
metadata: {name: chart-web}
spec:
  selector: {matchLabels: {app: chart}}
  template:
    metadata: {labels: {app: chart}}
    spec:
      containers: [{name: c, image: httpd}]
---
apiVersion: v1
kind: Service
metadata: {name: chart-svc}
spec:
  type: NodePort
  selector: {app: chart}
  ports: [{port: 8080}]
`
	// appliedFirst takes a cluster IP and a node port before the rest,
	// so that the second environment allocates other values than the
	// first.
	appliedFirst = `apiVersion: v1
kind: Service
metadata: {name: first}
spec:
  type: NodePort
  ports: [{port: 9}]
`
)

// TestAppliedDocsNeverWritten: apply stores the documents of the yamlx
// cache, which every cluster of the process shares, and never writes
// them; a Service's allocated cluster IP and node ports go into copies.
// Two environments apply the same cached texts on goroutines of their
// own and read everything back while another goroutine marshals the
// cached documents, so that under -race a write to one is a reported
// race. The documents must marshal as they did before, and each
// environment must show the values it allocated itself.
func TestAppliedDocsNeverWritten(t *testing.T) {
	var docs []*yamlx.Node
	for _, src := range []string{appliedServices, appliedNoSpec, appliedChart, appliedFirst} {
		d, err := yamlx.ParseAllCached(src)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, d...)
	}
	marshal := func() []string {
		text := make([]string, len(docs))
		for i, d := range docs {
			text[i] = yamlx.MarshalString(d)
		}
		return text
	}
	before := marshal()

	script := `kubectl apply -f services.yaml
kubectl apply -f bare.yaml && echo "bare applied"
helm install chart -f chart.yaml
sleep 10
` + readEveryKind + readEveryPod
	envs := []*helmsim.Env{helmsim.NewEnv(), helmsim.NewEnv()}
	preludes := []string{"", "kubectl apply -f first.yaml\n"}
	outs := make([]string, len(envs))
	var wg sync.WaitGroup
	for i, env := range envs {
		env.Shell.FS["services.yaml"] = appliedServices
		env.Shell.FS["bare.yaml"] = appliedNoSpec
		env.Shell.FS["chart.yaml"] = appliedChart
		env.Shell.FS["first.yaml"] = appliedFirst
		wg.Add(1)
		go func() {
			defer wg.Done()
			stdout, stderr, _ := execScript(t, env.Shell, preludes[i]+script)
			outs[i] = stdout + stderr
		}()
	}
	stop := make(chan struct{})
	var marshaller sync.WaitGroup
	marshaller.Add(1)
	go func() {
		defer marshaller.Done()
		for {
			select {
			case <-stop:
				return
			default:
				marshal()
			}
		}
	}()
	wg.Wait()
	close(stop)
	marshaller.Wait()

	for i, after := range marshal() {
		if after != before[i] {
			t.Errorf("applying wrote cached document %d:\n--- before\n%s--- after\n%s", i, before[i], after)
		}
	}
	for i, out := range outs {
		if strings.Contains(out, "bare applied") || !strings.Contains(out, "spec is required") {
			t.Errorf("environment %d: a Service with no spec was not refused:\n%s", i, out)
		}
	}

	// The first environment allocates from the start; the second has
	// given "first" a cluster IP and a node port already. Pods take
	// addresses from the same counter as cluster IPs.
	want := []map[string]string{{
		"np":        "10.96.0.3 30000 30500",
		"lb":        "10.96.0.4 30001",
		"chart-svc": "10.96.0.8 30002",
	}, {
		"np":        "10.96.0.4 30001 30500",
		"lb":        "10.96.0.5 30002",
		"chart-svc": "10.96.0.9 30003",
	}}
	for i, env := range envs {
		stdout, stderr, code := execScript(t, env.Shell, "kubectl get svc -o yaml")
		if code != 0 {
			t.Fatalf("environment %d: get svc: stdout %q, stderr %q, exit %d", i, stdout, stderr, code)
		}
		svcs, err := yamlx.ParseAll([]byte(stdout))
		if err != nil {
			t.Fatalf("environment %d: get svc -o yaml does not parse: %v", i, err)
		}
		got := map[string]string{}
		for _, svc := range svcs {
			fields := []string{svc.Path("spec", "clusterIP").ScalarString()}
			for _, p := range svc.Path("spec", "ports").Items {
				fields = append(fields, p.Get("nodePort").ScalarString())
			}
			got[svc.Path("metadata", "name").ScalarString()] = strings.TrimSpace(strings.Join(fields, " "))
		}
		for name, w := range want[i] {
			if got[name] != w {
				t.Errorf("environment %d: service %s shows %q, want %q", i, name, got[name], w)
			}
		}
	}
}
