package k8scmd_test

import (
	"errors"
	"io/fs"
	"os"
	"strconv"
	"strings"
	"testing"

	"cloudeval/internal/dataset"
	"cloudeval/internal/k8scmd"
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
	{"CronJob", "cronjobs", nil, "", false},
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
	{"LimitRange", "limitranges", nil, "", false},
	{"ResourceQuota", "resourcequotas", nil, "", false},
	{"DestinationRule", "destinationrules", nil, "", false},
	{"VirtualService", "virtualservices", nil, "", false},
	{"Gateway", "gateways", nil, "", false},
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

// transcript runs commands on one environment and records, for each,
// the command line, its stdout, its stderr and its exit code.
type transcript struct {
	t   *testing.T
	env *k8scmd.Env
	b   strings.Builder
}

func (tr *transcript) section(title string) {
	tr.env = k8scmd.NewEnv()
	tr.b.WriteString("\n### " + title + "\n")
}

func (tr *transcript) run(cmds ...string) {
	for _, cmd := range cmds {
		res, err := tr.env.Shell.Run(cmd)
		if err != nil {
			tr.t.Fatalf("%s: %v", cmd, err)
		}
		tr.b.WriteString("$ " + cmd + "\n")
		tr.stream(res.Stdout)
		if res.Stderr != "" {
			tr.b.WriteString("--- stderr\n")
			tr.stream(res.Stderr)
		}
		tr.b.WriteString("--- exit " + strconv.Itoa(res.ExitCode) + "\n")
	}
}

func (tr *transcript) stream(s string) {
	tr.b.WriteString(s)
	if s != "" && !strings.HasSuffix(s, "\n") {
		tr.b.WriteString("\n--- no newline at end\n")
	}
}

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
// back under every spelling of the kind — get as a table, wide, by name,
// as YAML and through jsonpath, describe, wait where the kind has a
// condition, rollout status for workloads, delete — followed by the
// NotFound, bad-selector and unknown-type cases. A column width, an error
// text or a kind spelling that changes shows here, in the lines it
// changes, not as a moved Table 4 digest. When testdata/kubectl.golden
// is missing the test records it and fails; delete the file to record
// it again, and review the diff.
func TestKubectlTranscripts(t *testing.T) {
	problems := dataset.Generate()
	tr := &transcript{t: t}
	for _, k := range transcriptKinds {
		src, name, ns := referenceFor(t, problems, k.kind)
		nsFlag := ""
		if ns != "" {
			nsFlag = " -n " + ns
		}
		spellings := append([]string{k.kind, strings.ToLower(k.kind), k.plural}, k.short...)
		spellings = append(spellings, strings.ToUpper(k.plural))

		tr.section(k.kind)
		tr.env.Shell.FS["ref.yaml"] = src
		for _, extra := range namespacesOf(src) {
			tr.run("kubectl create ns " + extra)
		}
		tr.run("kubectl apply -f ref.yaml", "sleep 10")
		for _, s := range spellings {
			tr.run(
				"kubectl get "+s+nsFlag,
				"kubectl get "+s+nsFlag+" -o wide",
				"kubectl get "+s+" -A",
				"kubectl get "+s+nsFlag+" -o name",
				"kubectl get "+s+nsFlag+" -o yaml",
				"kubectl get "+s+nsFlag+" -o jsonpath='{.items[*].metadata.name}'",
				"kubectl get "+s+" "+name+nsFlag+" -o jsonpath='{.metadata.name} {.metadata.namespace}'",
				"kubectl get "+s+"/"+name+nsFlag+" -o name",
				"kubectl describe "+s+" "+name+nsFlag,
			)
			if k.cond != "" {
				tr.run(
					"kubectl wait --for=condition="+k.cond+" "+s+" --all"+nsFlag+" --timeout=30s",
					"kubectl wait --for=condition="+k.cond+" "+s+"/"+name+nsFlag+" --timeout=30s",
				)
			}
			if k.rollout {
				tr.run("kubectl rollout status " + s + "/" + name + nsFlag + " --timeout=30s")
			}
			tr.run(
				"kubectl delete "+s+" "+name+nsFlag,
				"kubectl get "+s+" "+name+nsFlag,
				"kubectl apply -f ref.yaml",
			)
		}
		tr.run(
			"kubectl get "+k.plural+" no-such"+nsFlag,
			"kubectl get "+k.plural+" no-such"+nsFlag+" -o name",
			"kubectl describe "+k.plural+" no-such"+nsFlag,
			"kubectl delete "+k.plural+" no-such"+nsFlag,
			"kubectl describe "+k.plural+" -l no-such=label"+nsFlag,
			"kubectl get "+k.plural+" -l 'app in'"+nsFlag,
		)
		if k.cond != "" {
			tr.run(
				"kubectl wait --for=condition="+k.cond+" "+k.plural+"/no-such"+nsFlag+" --timeout=5s",
				"kubectl wait --for=condition="+k.cond+" "+k.plural+" -l no-such=label"+nsFlag+" --timeout=5s",
			)
		}
	}

	tr.section("selectors")
	tr.env.Shell.FS["ref.yaml"], _, _ = referenceFor(t, problems, "Deployment")
	tr.run(
		"kubectl apply -f ref.yaml",
		"kubectl get pods -l 'app in'",
		"kubectl get pods --selector='app=a=b' -o name",
		"kubectl describe pods -l 'app in (web'",
		"kubectl wait --for=condition=Ready pod -l 'app>1' --timeout=5s",
		"kubectl get pods -l '!app' -o name",
	)

	tr.section("unknown types")
	tr.env.Shell.FS["widget.yaml"] = "apiVersion: example.com/v1\nkind: Widget\nmetadata:\n  name: w\n"
	tr.run(
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
		"kubectl get all",
		"kubectl get all -o wide",
		"kubectl get all -o name",
		"kubectl get all -A -o yaml",
	)

	got := tr.b.String()
	want, err := os.ReadFile(transcriptGolden)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.WriteFile(transcriptGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("recorded %s (%d bytes): review it and run the test again", transcriptGolden, len(got))
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
		t.Fatalf("%d commands run, %s has %d", len(gotCmds), transcriptGolden, len(wantCmds))
	}
	reported := 0
	for i := range gotCmds {
		if gotCmds[i] != wantCmds[i] && reported < 10 {
			t.Errorf("kubectl output differs from %s:\n--- got\n$ %s\n--- want\n$ %s", transcriptGolden, gotCmds[i], wantCmds[i])
			reported++
		}
	}
}
