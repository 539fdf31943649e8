package k8scmd

import (
	"strings"
	"testing"

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
kubectl get configmap temp -n scratch 2>&1 || echo gone
kubectl delete ns scratch
kubectl get ns scratch 2>&1 || echo ns-gone`)
	if !strings.Contains(out, "gone") || !strings.Contains(out, "ns-gone") {
		t.Errorf("delete flow output:\n%s", out)
	}
}

func TestKubectlGetAllNamespaces(t *testing.T) {
	env := freshEnv(t)
	out, _, _ := runIn(t, env, `kubectl create ns east
kubectl create ns west
echo "apiVersion: v1
kind: Pod
metadata:
  name: p1
  namespace: east
spec:
  containers:
  - name: c
    image: nginx" | kubectl apply -f -
echo "apiVersion: v1
kind: Pod
metadata:
  name: p2
  namespace: west
spec:
  containers:
  - name: c
    image: nginx" | kubectl apply -f -
kubectl get pods -A -o name | wc -l`)
	if !strings.Contains(out, "2") {
		t.Errorf("get -A should see both pods:\n%s", out)
	}
}

func TestKubectlLogsAndVersion(t *testing.T) {
	env := freshEnv(t)
	out, _, _ := runIn(t, env, `echo "apiVersion: v1
kind: Pod
metadata:
  name: app
spec:
  containers:
  - name: c
    image: redis:7" | kubectl apply -f -
kubectl logs app
kubectl version`)
	if !strings.Contains(out, "redis:7") {
		t.Errorf("logs should mention the image:\n%s", out)
	}
	if !strings.Contains(out, "Client Version") {
		t.Errorf("version output:\n%s", out)
	}
}

func TestKubectlGetYAMLRoundTrips(t *testing.T) {
	env := freshEnv(t)
	out, _, _ := runIn(t, env, `echo "apiVersion: v1
kind: ConfigMap
metadata:
  name: rt
data:
  alpha: one" | kubectl apply -f -
kubectl get configmap rt -o yaml > dumped.yaml
kubectl delete configmap rt
kubectl apply -f dumped.yaml
kubectl get configmap rt -o=jsonpath='{.data.alpha}'`)
	if !strings.Contains(out, "one") {
		t.Errorf("get -o yaml round trip failed:\n%s", out)
	}
}

func TestKubectlErrorMessages(t *testing.T) {
	env := freshEnv(t)
	_, stderr, code := runIn(t, env, `kubectl get pod no-such-pod`)
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

// TestKubectlAPIResources: api-resources lists every kind the simulator
// serves, and every name it prints is one get accepts.
func TestKubectlAPIResources(t *testing.T) {
	env := freshEnv(t)
	out, _, code := runIn(t, env, "kubectl api-resources")
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if code != 0 || len(lines) != len(kubesim.Resources)+1 || strings.Join(strings.Fields(lines[0]), " ") != "NAME SHORTNAMES APIVERSION NAMESPACED KIND" {
		t.Fatalf("api-resources: exit %d\n%s", code, out)
	}
	for _, want := range []string{
		"pods po v1 true Pod",
		"deployments deploy apps/v1 true Deployment",
		"storageclasses sc storage.k8s.io/v1 false StorageClass",
		"clusterroles rbac.authorization.k8s.io/v1 false ClusterRole",
	} {
		if !containsFields(lines, want) {
			t.Errorf("api-resources has no row %q:\n%s", want, out)
		}
	}
	names, _, _ := runIn(t, env, "kubectl api-resources -o name")
	if strings.Count(names, "\n") != len(kubesim.Resources) {
		t.Errorf("api-resources -o name:\n%s", names)
	}
	for _, name := range strings.Fields(names) {
		if _, stderr, code := runIn(t, env, "kubectl get "+name); code != 0 || !strings.HasPrefix(stderr, "No resources found") {
			t.Errorf("kubectl get %s: exit %d, stderr %q", name, code, stderr)
		}
	}
}

func containsFields(lines []string, want string) bool {
	for _, ln := range lines {
		if strings.Join(strings.Fields(ln), " ") == want {
			return true
		}
	}
	return false
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

func TestMinikubeIPAndLifecycle(t *testing.T) {
	env := freshEnv(t)
	out, _, _ := runIn(t, env, `minikube ip
minikube start
minikube status`)
	if !strings.Contains(out, "192.168.49.2") || !strings.Contains(out, "Done!") {
		t.Errorf("minikube output:\n%s", out)
	}
}
