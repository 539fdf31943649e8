package k8scmd_test

import (
	"errors"
	"io/fs"
	"os"
	"strings"
	"testing"

	"cloudeval/internal/dataset"
	"cloudeval/internal/k8scmd"
	"cloudeval/internal/unittest"
	"cloudeval/internal/yamlx"
)

// transcriptKinds are the kinds TestKubectlTranscripts reads back, with
// every spelling kubectl accepts for each: the Kind, its singular and
// plural, and its short names. cond is the condition a wait on the kind
// can reach, rollout whether "kubectl rollout status" applies to it. It
// is written out here rather than taken from kubesim: the transcript is
// the oracle for the simulator's table, not a reading of it.
var transcriptKinds = []struct {
	kind, plural string
	short        []string
	cond         string
	rollout      bool
}{
	{"Pod", "pods", []string{"po"}, "Ready", false},
	{"Deployment", "deployments", []string{"deploy"}, "Available", true},
	{"ReplicaSet", "replicasets", []string{"rs"}, "Available", false},
	{"StatefulSet", "statefulsets", []string{"sts"}, "Available", true},
	{"DaemonSet", "daemonsets", []string{"ds"}, "Ready", true},
	{"Job", "jobs", nil, "Complete", false},
	{"CronJob", "cronjobs", []string{"cj"}, "", false},
	{"Service", "services", []string{"svc"}, "", false},
	{"Ingress", "ingresses", []string{"ing"}, "", false},
	{"ConfigMap", "configmaps", []string{"cm"}, "", false},
	{"Secret", "secrets", nil, "", false},
	{"Namespace", "namespaces", []string{"ns"}, "", false},
	{"ServiceAccount", "serviceaccounts", []string{"sa"}, "", false},
	{"Role", "roles", nil, "", false},
	{"RoleBinding", "rolebindings", nil, "", false},
	{"ClusterRole", "clusterroles", nil, "", false},
	{"ClusterRoleBinding", "clusterrolebindings", nil, "", false},
	{"PersistentVolume", "persistentvolumes", []string{"pv"}, "", false},
	{"PersistentVolumeClaim", "persistentvolumeclaims", []string{"pvc"}, "", false},
	{"HorizontalPodAutoscaler", "horizontalpodautoscalers", []string{"hpa"}, "", false},
	{"NetworkPolicy", "networkpolicies", []string{"netpol"}, "", false},
	{"LimitRange", "limitranges", []string{"limits"}, "", false},
	{"ResourceQuota", "resourcequotas", []string{"quota"}, "", false},
	{"DestinationRule", "destinationrules", []string{"dr"}, "", false},
	{"VirtualService", "virtualservices", []string{"vs"}, "", false},
	{"Gateway", "gateways", []string{"gw"}, "", false},
	{"StorageClass", "storageclasses", []string{"sc"}, "", false},
	{"Node", "nodes", []string{"no"}, "", false},
}

// transcriptManifests stand in for corpus references of the kinds no
// problem applies.
var transcriptManifests = map[string]string{
	"ReplicaSet": `apiVersion: apps/v1
kind: ReplicaSet
metadata:
  name: frontend
  labels: {tier: frontend}
spec:
  replicas: 2
  selector:
    matchLabels: {tier: frontend}
  template:
    metadata:
      labels: {tier: frontend}
    spec:
      containers:
      - name: php-redis
        image: gcr.io/google_samples/gb-frontend:v3
`,
	"ClusterRoleBinding": `apiVersion: rbac.authorization.k8s.io/v1
kind: ClusterRoleBinding
metadata:
  name: read-secrets-global
subjects:
- kind: Group
  name: manager
  apiGroup: rbac.authorization.k8s.io
roleRef:
  kind: ClusterRole
  name: secret-reader
  apiGroup: rbac.authorization.k8s.io
`,
	"StorageClass": `apiVersion: storage.k8s.io/v1
kind: StorageClass
metadata:
  name: standard
provisioner: k8s.io/minikube-hostpath
reclaimPolicy: Delete
`,
	"Node": `apiVersion: v1
kind: Node
metadata:
  name: minikube
  labels:
    kubernetes.io/hostname: minikube
`,
}

const transcriptGolden = "testdata/kubectl.golden"

// referenceFor returns the reference of the first Kubernetes or Istio
// problem, in corpus order, that applies an object of the kind, and that
// object's name and namespace ("" for none given).
func referenceFor(t *testing.T, problems []dataset.Problem, kind string) (src, name, ns string) {
	if src, ok := transcriptManifests[kind]; ok {
		name, ns := firstOfKind(t, src, kind)
		return src, name, ns
	}
	for _, p := range problems {
		if p.Category != dataset.Kubernetes && p.Category != dataset.Istio {
			continue
		}
		if name, ns := firstOfKind(t, p.ReferenceYAML, kind); name != "" {
			return p.ReferenceYAML, name, ns
		}
	}
	t.Fatalf("no corpus reference applies a %s", kind)
	return
}

func firstOfKind(t *testing.T, src, kind string) (name, ns string) {
	docs, err := yamlx.ParseAll([]byte(src))
	if err != nil {
		return "", ""
	}
	for _, d := range docs {
		if d != nil && d.Get("kind").ScalarString() == kind {
			return d.Path("metadata", "name").ScalarString(), d.Path("metadata", "namespace").ScalarString()
		}
	}
	return "", ""
}

// namespacesOf lists the namespaces a reference's objects name, other
// than default, in order of first appearance.
func namespacesOf(src string) []string {
	docs, _ := yamlx.ParseAll([]byte(src))
	var out []string
	for _, d := range docs {
		if ns := d.Path("metadata", "namespace").ScalarString(); ns != "" && ns != "default" && !contains(out, ns) {
			out = append(out, ns)
		}
	}
	return out
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// TestKubectlTranscripts pins what kubectl prints, byte for byte: for
// every kind the simulator serves, one reference is applied and read
// back under every spelling of the kind, in the forms the corpus's
// scripts read with — jsonpath over the list and by name (plain and
// KIND/NAME), the Services table, describe of an Ingress, wait where
// the kind has a condition, rollout status for workloads, delete —
// followed by the NotFound and unknown-type cases, and one refusal for
// each form kubectl does not serve. A column width, an error text or a
// kind spelling that changes shows here, in the lines it changes, not
// as a moved Table 4 digest. When testdata/kubectl.golden is missing
// the test records it and fails; delete the file to record it again,
// and review the diff.
func TestKubectlTranscripts(t *testing.T) {
	problems := dataset.Generate()
	var (
		b   strings.Builder
		env *k8scmd.Env
		rec *unittest.Recorder
	)
	// Each section runs on a fresh environment; the golden keeps no
	// virtual time, so the recorder reads no clock.
	section := func(title string) {
		env = k8scmd.NewEnv()
		rec = unittest.NewRecorder(env.Shell, nil)
		b.WriteString("\n### " + title + "\n")
	}
	run := func(cmds ...string) { rec.Transcribe(&b, cmds...) }
	for _, k := range transcriptKinds {
		src, name, ns := referenceFor(t, problems, k.kind)
		nsFlag := ""
		if ns != "" {
			nsFlag = " -n " + ns
		}
		spellings := append([]string{k.kind, strings.ToLower(k.kind), k.plural}, k.short...)
		spellings = append(spellings, strings.ToUpper(k.plural))

		section(k.kind)
		env.Shell.FS["ref.yaml"] = src
		for _, extra := range namespacesOf(src) {
			run("kubectl create ns " + extra)
		}
		run("kubectl apply -f ref.yaml", "sleep 10")
		for _, s := range spellings {
			if k.kind == "Service" {
				run("kubectl get " + s + nsFlag)
			}
			run(
				"kubectl get "+s+nsFlag+" -o jsonpath='{.items[*].metadata.name}'",
				"kubectl get "+s+" "+name+nsFlag+" -o jsonpath='{.metadata.name}'",
				"kubectl get "+s+"/"+name+nsFlag+" -o jsonpath='{.metadata.namespace}'",
			)
			if k.kind == "Ingress" {
				run("kubectl describe " + s + " " + name + nsFlag)
			}
			if k.cond != "" {
				run(
					"kubectl wait --for=condition="+k.cond+" "+s+" --all"+nsFlag+" --timeout=30s",
					"kubectl wait --for=condition="+k.cond+" "+s+"/"+name+nsFlag+" --timeout=30s",
				)
			}
			if k.rollout {
				run("kubectl rollout status " + s + "/" + name + nsFlag + " --timeout=30s")
			}
			run(
				"kubectl delete "+s+" "+name+nsFlag,
				"kubectl get "+s+" "+name+nsFlag+" -o jsonpath='{.metadata.name}'",
				"kubectl apply -f ref.yaml",
			)
		}
		run("kubectl get " + k.plural + " no-such" + nsFlag + " -o jsonpath='{.metadata.name}'")
		if k.kind == "Ingress" {
			run("kubectl describe " + k.plural + " no-such" + nsFlag)
		}
		run("kubectl delete " + k.plural + " no-such" + nsFlag)
		if k.cond != "" {
			run(
				"kubectl wait --for=condition="+k.cond+" "+k.plural+"/no-such"+nsFlag+" --timeout=5s",
				"kubectl wait --for=condition="+k.cond+" "+k.plural+" -l no-such=label"+nsFlag+" --timeout=5s",
			)
		}
	}

	// An Ingress whose backend Service the answer holds: describe shows
	// the Service's ready endpoints beside the backend.
	section("ingress backends")
	env.Shell.FS["web.yaml"], _, _ = referenceFor(t, problems, "Deployment")
	env.Shell.FS["edge.yaml"] = `apiVersion: v1
kind: Service
metadata:
  name: web
spec:
  selector:
    app: web
  ports:
  - port: 80
    targetPort: 80
---
apiVersion: networking.k8s.io/v1
kind: Ingress
metadata:
  name: edge
spec:
  rules:
  - http:
      paths:
      - path: /
        pathType: Prefix
        backend:
          service:
            name: web
            port:
              number: 80
`
	run(
		"kubectl apply -f web.yaml",
		"kubectl apply -f edge.yaml",
		"kubectl describe ingress edge",
		"sleep 10",
		"kubectl get pods -l app=web -o jsonpath='{.items[*].metadata.labels}'",
		"kubectl describe ingress edge",
	)

	section("selectors")
	env.Shell.FS["ref.yaml"], _, _ = referenceFor(t, problems, "Deployment")
	run(
		"kubectl apply -f ref.yaml",
		"kubectl get pods --selector='app=a=b' -o jsonpath='{.items[*].metadata.name}'",
		"kubectl wait --for=condition=Ready pod -l 'app>1' --timeout=5s",
	)

	section("unknown types")
	env.Shell.FS["widget.yaml"] = "apiVersion: example.com/v1\nkind: Widget\nmetadata:\n  name: w\n"
	run(
		"kubectl get foo",
		"kubectl get foo -o name",
		"kubectl get foo bar",
		"kubectl get foo/bar -o yaml",
		"kubectl describe foo",
		"kubectl describe foo bar",
		"kubectl wait --for=condition=Ready foo --all --timeout=5s",
		"kubectl wait --for=condition=Ready foo/bar --timeout=5s",
		"kubectl rollout status foo/bar --timeout=5s",
		"kubectl delete foo bar",
		"kubectl apply -f widget.yaml",
		"kubectl get widget",
		"kubectl get widgets -o name",
		"kubectl delete -f widget.yaml",
		"kubectl get all -o jsonpath='{.items}'",
		"kubectl get all/web -o jsonpath='{.items}'",
	)

	section("logs")
	podSrc, pod, _ := referenceFor(t, problems, "Pod")
	env.Shell.FS["pod.yaml"] = podSrc
	env.Shell.FS["deploy.yaml"], _, _ = referenceFor(t, problems, "Deployment")
	run(
		"kubectl create ns other",
		"kubectl apply -f pod.yaml",
		"kubectl logs "+pod,
		"kubectl logs "+pod+" -n default --tail=5",
		"kubectl logs "+pod+" -n other",
		"kubectl logs no-such",
		"kubectl logs",
		"kubectl apply -f deploy.yaml",
		"sleep 10",
		"kubectl logs $(kubectl get pods -o jsonpath='{.items[0].metadata.name}')",
		"for p in $(kubectl get pods -o jsonpath='{.items[*].metadata.name}'); do kubectl logs $p | grep -c 'container started'; done",
	)

	// One refusal per form kubectl serves no corpus script with.
	section("forms kubectl refuses")
	env.Shell.FS["pod.yaml"] = podSrc
	run(
		"kubectl apply -f pod.yaml",
		"sleep 10",
		"kubectl version",
		"kubectl cluster-info",
		"kubectl api-resources",
		"kubectl get pods",
		"kubectl get pods -A -o jsonpath='{.items[*].metadata.name}'",
		"kubectl get pods -o wide",
		"kubectl get pods -o name",
		"kubectl get pods -o yaml",
		"kubectl create -f pod.yaml",
		"kubectl create role reader --verb=get --resource=pods",
		"kubectl describe pods -l app=web",
		"kubectl describe pod "+pod,
		"kubectl wait --for=condition=Ready pod --all --timeout=30",
		"kubectl wait --for=condition=Ready pod --all --timeout=soon",
		"kubectl get pods -l app -o jsonpath='{.items[*].metadata.name}'",
		"kubectl get pods -l '!app' -o jsonpath='{.items[*].metadata.name}'",
		"kubectl get pods -l 'app!=web' -o jsonpath='{.items[*].metadata.name}'",
		"kubectl get pods -l 'app in (web)' -o jsonpath='{.items[*].metadata.name}'",
		"kubectl get pods -l 'app notin (web)' -o jsonpath='{.items[*].metadata.name}'",
		"kubectl get pods -o jsonpath='{.items[*].metadata.name} {.kind}'",
		"kubectl get pods -o jsonpath='{$.kind}'",
		"kubectl get pods -o jsonpath='{kind}'",
		"kubectl get pods -o jsonpath='{.items[0] .kind}'",
		"kubectl get pods -o jsonpath='{.items.[0].kind}'",
		"kubectl get pods -o jsonpath='{.kind.}'",
		"minikube start",
		"minikube stop",
		"minikube delete",
		"minikube status",
		"minikube service web-svc --url",
	)

	checkTranscript(t, transcriptGolden, b.String())
}

// checkTranscript compares a transcript with its golden file. When the
// file is missing it records it and fails: delete the golden to record
// it again, and review the diff.
func checkTranscript(t *testing.T, golden, got string) {
	want, err := os.ReadFile(golden)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("recorded %s (%d bytes): review it and run the test again", golden, len(got))
	}
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	// One block per command: report the commands whose output changed.
	gotCmds, wantCmds := strings.Split(got, "\n$ "), strings.Split(string(want), "\n$ ")
	if len(gotCmds) != len(wantCmds) {
		t.Fatalf("%d commands run, %s has %d", len(gotCmds), golden, len(wantCmds))
	}
	reported := 0
	for i := range gotCmds {
		if gotCmds[i] != wantCmds[i] && reported < 10 {
			t.Errorf("kubectl output differs from %s:\n--- got\n$ %s\n--- want\n$ %s", golden, gotCmds[i], wantCmds[i])
			reported++
		}
	}
}
