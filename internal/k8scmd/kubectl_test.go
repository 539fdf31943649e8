package k8scmd

import (
	"strings"
	"testing"
	"time"

	"cloudeval/internal/kubesim"
	"cloudeval/internal/shell"
)

func freshEnv(t *testing.T) *Env {
	t.Helper()
	return NewEnv()
}

// runIn parses script and executes it on env, its stderr gathered
// command by command through the shell's Watch hook.
func runIn(t testing.TB, env *Env, script string) (stdout, stderr string, code int) {
	t.Helper()
	prog, err := shell.Parse(script)
	if err != nil {
		t.Fatalf("script error: %v\n%s", err, script)
	}
	var errOut strings.Builder
	env.Shell.Watch = func(_ int, _, s string, _ int) { errOut.WriteString(s) }
	defer func() { env.Shell.Watch = nil }()
	stdout, code = env.Shell.Exec(prog)
	return stdout, errOut.String(), code
}

func TestKubectlDeleteByNameAndNamespace(t *testing.T) {
	env := freshEnv(t)
	out, _, _ := runIn(t, env, `kubectl create ns scratch
echo "apiVersion: v1
kind: ConfigMap
metadata:
  name: temp
  namespace: scratch
data:
  k: v" | kubectl apply -f -
kubectl delete configmap temp -n scratch
kubectl get configmap temp -n scratch -o jsonpath='{.data}' 2>&1 || echo gone
kubectl delete ns scratch
kubectl get ns scratch -o jsonpath='{.metadata.name}' 2>&1 || echo ns-gone`)
	if !strings.Contains(out, "gone") || !strings.Contains(out, "ns-gone") {
		t.Errorf("delete flow output:\n%s", out)
	}
}

// TestKubectlCutFormsRefused: the kubectl and minikube forms no corpus
// script names fail with exit 1 and a stderr that names the form, and
// write nothing to stdout.
func TestKubectlCutFormsRefused(t *testing.T) {
	env := freshEnv(t)
	env.Shell.FS["cm.yaml"] = "apiVersion: v1\nkind: ConfigMap\nmetadata:\n  name: cm\n"
	if _, stderr, code := runIn(t, env, "kubectl apply -f cm.yaml"); code != 0 {
		t.Fatalf("apply: exit %d, %s", code, stderr)
	}
	for _, tc := range []struct{ cmd, stderr string }{
		{"kubectl version", `error: unknown command "version" for "kubectl"`},
		{"kubectl cluster-info", `error: unknown command "cluster-info" for "kubectl"`},
		{"kubectl api-resources", `error: unknown command "api-resources" for "kubectl"`},
		{"kubectl get configmaps -A -o jsonpath='{.items}'", "kubectl: get -A is not supported"},
		{"kubectl get configmaps --all-namespaces -o jsonpath='{.items}'", "kubectl: get -A is not supported"},
		{"kubectl get configmaps", "kubectl: get configmaps without -o jsonpath is not supported"},
		{"kubectl get cm cm", "kubectl: get cm without -o jsonpath is not supported"},
		{"kubectl get configmap/cm -o yaml", "kubectl: get -o yaml is not supported"},
		{"kubectl get configmaps -o name", "kubectl: get -o name is not supported"},
		{"kubectl get services -o wide", "kubectl: get -o wide is not supported"},
		{"kubectl create -f cm.yaml", "kubectl: create -f is not supported"},
		{"kubectl create role r --verb=get --resource=pods", "kubectl: create role is not supported"},
		{"kubectl describe ingress", "kubectl: describe by selector is not supported"},
		{"kubectl describe ingresses -l app=web", "kubectl: describe by selector is not supported"},
		{"kubectl describe configmap cm", "kubectl: describe configmap is not supported"},
		{"kubectl wait --for=condition=Ready pod --all --timeout=60", `error: invalid argument "60" for "--timeout" flag: time: missing unit in duration "60"`},
		{"kubectl wait --for=condition=Ready pod --all --timeout=soon", `error: invalid argument "soon" for "--timeout" flag: time: invalid duration "soon"`},
		{"kubectl rollout status deployment/web --timeout=5", `error: invalid argument "5" for "--timeout" flag: time: missing unit in duration "5"`},
		{"minikube start", `minikube: unknown command "start"`},
		{"minikube stop", `minikube: unknown command "stop"`},
		{"minikube delete", `minikube: unknown command "delete"`},
		{"minikube status", `minikube: unknown command "status"`},
		{"minikube service web --url", "minikube: service --url is not supported"},
	} {
		out, stderr, code := runIn(t, env, tc.cmd)
		if code != 1 || out != "" || stderr != tc.stderr+"\n" {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit 1 and %q", tc.cmd, code, out, stderr, tc.stderr)
		}
	}
}

func TestKubectlLogs(t *testing.T) {
	env := freshEnv(t)
	out, _, _ := runIn(t, env, `echo "apiVersion: v1
kind: Pod
metadata:
  name: app
spec:
  containers:
  - name: c
    image: redis:7" | kubectl apply -f -
kubectl logs app`)
	if !strings.Contains(out, "redis:7") {
		t.Errorf("logs should mention the image:\n%s", out)
	}
}

func TestKubectlErrorMessages(t *testing.T) {
	env := freshEnv(t)
	_, stderr, code := runIn(t, env, `kubectl get pod no-such-pod -o jsonpath='{.metadata.name}'`)
	if code == 0 || !strings.Contains(stderr, "NotFound") {
		t.Errorf("missing pod: code=%d stderr=%q", code, stderr)
	}
	_, stderr, code = runIn(t, env, `kubectl frobnicate`)
	if code == 0 || !strings.Contains(stderr, "unknown command") {
		t.Errorf("unknown subcommand: code=%d stderr=%q", code, stderr)
	}
	_, stderr, code = runIn(t, env, `kubectl wait --for=banana pod --all`)
	if code == 0 || !strings.Contains(stderr, "unrecognized") {
		t.Errorf("bad --for: code=%d stderr=%q", code, stderr)
	}
	for _, verb := range []string{"get foo", "get foo -o name", "describe foo", "wait --for=condition=Ready foo --all", "delete foo bar"} {
		out, stderr, code := runIn(t, env, "kubectl "+verb)
		if code != 1 || out != "" || stderr != "error: the server doesn't have a resource type \"foo\"\n" {
			t.Errorf("kubectl %s: exit %d, stdout %q, stderr %q; want the server's unknown-type error", verb, code, out, stderr)
		}
	}
}

// TestKubectlGetsEveryResource: every kind the simulator serves, under
// its plural and each short name, is one get reads.
func TestKubectlGetsEveryResource(t *testing.T) {
	env := freshEnv(t)
	for _, r := range kubesim.Resources {
		for _, name := range append([]string{r.Plural}, r.ShortNames...) {
			if out, stderr, code := runIn(t, env, "kubectl get "+name+" -o jsonpath='{.kind}'"); code != 0 || out != "List\n" {
				t.Errorf("kubectl get %s: exit %d, stdout %q, stderr %q", name, code, out, stderr)
			}
		}
	}
}

func TestKubectlWaitSlashForm(t *testing.T) {
	env := freshEnv(t)
	out, _, code := runIn(t, env, `echo "apiVersion: batch/v1
kind: Job
metadata:
  name: quick
spec:
  template:
    spec:
      containers:
      - name: c
        image: busybox:1.36
      restartPolicy: Never" | kubectl apply -f -
kubectl wait --for=condition=complete job/quick --timeout=60s && echo waited`)
	if code != 0 || !strings.Contains(out, "waited") {
		t.Errorf("wait on job/name form failed (code %d):\n%s", code, out)
	}
}

// TestKubectlGetByShortName: kubectl's abbreviations that end in "s"
// reach the objects apply created, like the kinds they abbreviate.
func TestKubectlGetByShortName(t *testing.T) {
	workload := func(kind string) string {
		return `echo "apiVersion: apps/v1
kind: ` + kind + `
metadata:
  name: agent
spec:
  selector:
    matchLabels:
      app: agent
  template:
    metadata:
      labels:
        app: agent
    spec:
      containers:
      - name: c
        image: busybox:1.36" | kubectl apply -f -
`
	}
	for short, kind := range map[string]string{"ds": "DaemonSet", "sts": "StatefulSet", "rs": "ReplicaSet"} {
		env := freshEnv(t)
		out, stderr, code := runIn(t, env, workload(kind)+
			"kubectl get "+short+" agent -o jsonpath={.metadata.name}\n"+
			"kubectl get "+strings.ToLower(kind)+" agent -o jsonpath={.metadata.name}")
		if code != 0 || !strings.HasSuffix(out, "created\nagent\nagent\n") {
			t.Errorf("kubectl get %s agent: exit %d\nstdout: %s\nstderr: %s", short, code, out, stderr)
		}
	}
}

func TestMinikubeIP(t *testing.T) {
	env := freshEnv(t)
	if out, _, code := runIn(t, env, "minikube ip"); code != 0 || out != "192.168.49.2\n" {
		t.Errorf("minikube ip: exit %d, %q", code, out)
	}
}

// TestWaitTimeouts: kubectl wait checks once at --timeout=0s and waits
// a week of virtual time at a negative timeout, where kubectl waits
// without a limit; rollout status reads 0s as no limit, and so waits a
// week too. Each condition here never holds, so the clock shows how
// long the command waited.
func TestWaitTimeouts(t *testing.T) {
	const week = 7 * 24 * time.Hour
	for _, tc := range []struct {
		cmd  string
		took time.Duration
	}{
		{"kubectl wait --for=condition=Complete pod/web", 30 * time.Second},
		{"kubectl wait --for=condition=Complete pod/web --timeout=5s", 5 * time.Second},
		{"kubectl wait --for=condition=Complete pod/web --timeout=0s", 0},
		{"kubectl wait --for=condition=Complete pod/web --timeout=-1s", week},
		{"kubectl rollout status deployment/stuck --timeout=0s", week},
		{"kubectl rollout status deployment/stuck --timeout=-1s", week},
		{"kubectl rollout status deployment/stuck --timeout=5s", 5 * time.Second},
	} {
		env := freshEnv(t)
		env.Shell.FS["m.yaml"] = stuckManifests
		if _, stderr, code := runIn(t, env, "kubectl apply -f m.yaml"); code != 0 {
			t.Fatalf("apply: exit %d, %s", code, stderr)
		}
		start := env.Now()
		_, stderr, code := runIn(t, env, tc.cmd)
		if took := env.Now().Sub(start); code != 1 || !strings.Contains(stderr, "timed out") || took != tc.took {
			t.Errorf("%s: exit %d after %v, stderr %q; want a timeout after %v", tc.cmd, code, took, stderr, tc.took)
		}
	}
}

// stuckManifests are a Pod, which never has the condition Complete, and
// a Deployment whose image reference is invalid, which never becomes
// Available.
const stuckManifests = `apiVersion: v1
kind: Pod
metadata:
  name: web
spec:
  containers:
  - name: c
    image: nginx
---
apiVersion: apps/v1
kind: Deployment
metadata:
  name: stuck
spec:
  selector:
    matchLabels:
      app: stuck
  template:
    metadata:
      labels:
        app: stuck
    spec:
      containers:
      - name: c
        image: "no such image"
`
