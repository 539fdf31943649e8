package helmsim

import (
	"fmt"
	"strings"
	"testing"

	"cloudeval/internal/shell"
	"cloudeval/internal/yamlx"
)

const sampleChart = `apiVersion: apps/v1
kind: Deployment
metadata:
  name: web
spec:
  replicas: 2
  selector:
    matchLabels:
      app: web
  template:
    metadata:
      labels:
        app: web
    spec:
      containers:
      - name: web
        image: nginx:1.25
        ports:
        - containerPort: 80
---
apiVersion: v1
kind: Service
metadata:
  name: web
spec:
  selector:
    app: web
  ports:
  - port: 80
    targetPort: 80
`

// run parses script and executes it on e: what it wrote to stdout,
// then what it wrote to stderr, gathered command by command through the
// shell's Watch hook, and its exit status.
func run(t *testing.T, e *Env, script string) (string, int) {
	t.Helper()
	prog, err := shell.Parse(script)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var stderr strings.Builder
	e.Shell.Watch = func(_ int, _, s string, _ int) { stderr.WriteString(s) }
	defer func() { e.Shell.Watch = nil }()
	stdout, code := e.Shell.Exec(prog)
	return stdout + stderr.String(), code
}

func TestTemplateRendersAndValidates(t *testing.T) {
	e := NewEnv()
	e.Shell.FS["labeled_code.yaml"] = sampleChart
	out, code := run(t, e, "helm template web -f labeled_code.yaml")
	if code != 0 {
		t.Fatalf("template failed:\n%s", out)
	}
	for _, want := range []string{"# Source: web/templates/deployment.yaml", "kind: Deployment", "kind: Service"} {
		if !strings.Contains(out, want) {
			t.Errorf("template output missing %q:\n%s", want, out)
		}
	}
	// Template must not install anything.
	if _, code := run(t, e, "kubectl get deployment web"); code == 0 {
		t.Error("helm template applied resources")
	}
}

func TestTemplateRejectsBrokenManifests(t *testing.T) {
	e := NewEnv()
	e.Shell.FS["labeled_code.yaml"] = "kind: Deployment\nmetadata:\n  name: x\n" // no apiVersion
	if out, code := run(t, e, "helm template web -f labeled_code.yaml"); code == 0 {
		t.Fatalf("template accepted manifest without apiVersion:\n%s", out)
	}
	e.Shell.FS["labeled_code.yaml"] = "not: [valid"
	if _, code := run(t, e, "helm template web -f labeled_code.yaml"); code == 0 {
		t.Fatal("template accepted unparsable YAML")
	}
}

func TestInstallStatusUninstall(t *testing.T) {
	e := NewEnv()
	e.Shell.FS["labeled_code.yaml"] = sampleChart
	out, code := run(t, e, "helm install web -f labeled_code.yaml")
	if code != 0 {
		t.Fatalf("install failed:\n%s", out)
	}
	out, _ = run(t, e, "helm status web")
	for _, want := range []string{"STATUS: deployed", "REVISION: 1", "RESOURCES: 2"} {
		if !strings.Contains(out, want) {
			t.Errorf("status missing %q:\n%s", want, out)
		}
	}
	// Released resources are visible to kubectl in the same cluster.
	out, code = run(t, e, "kubectl get deployment web -o=jsonpath='{.spec.replicas}'")
	if code != 0 || !strings.Contains(out, "2") {
		t.Errorf("kubectl does not see the release: %q (exit %d)", out, code)
	}
	out, _ = run(t, e, "helm ls")
	if !strings.Contains(out, "web") || !strings.Contains(out, "deployed") {
		t.Errorf("ls missing release:\n%s", out)
	}
	// Uninstall removes the released objects.
	run(t, e, "helm uninstall web")
	if _, code := run(t, e, "kubectl get deployment web"); code == 0 {
		t.Error("deployment survived uninstall")
	}
	if _, code := run(t, e, "helm status web"); code == 0 {
		t.Error("status of uninstalled release succeeded")
	}
}

func TestInstallIntoCreatedNamespace(t *testing.T) {
	e := NewEnv()
	e.Shell.FS["labeled_code.yaml"] = sampleChart
	out, code := run(t, e, "helm install web -f labeled_code.yaml -n apps --create-namespace")
	if code != 0 {
		t.Fatalf("install failed:\n%s", out)
	}
	out, code = run(t, e, "kubectl get deployment web -n apps -o=jsonpath='{.spec.template.spec.containers[0].image}'")
	if code != 0 || !strings.Contains(out, "nginx:1.25") {
		t.Errorf("release not in namespace: %q", out)
	}
	out, _ = run(t, e, "helm ls -n apps")
	if !strings.Contains(out, "web") {
		t.Errorf("ls -n apps missing release:\n%s", out)
	}
	out, _ = run(t, e, "helm ls")
	if strings.Contains(out, "web") {
		t.Errorf("default-namespace ls shows foreign release:\n%s", out)
	}
}

// TestFailedInstallLeavesNoTrace: a release whose apply fails mid-way
// (here: target namespace missing) must roll back what it applied,
// record nothing, and leave `helm ls` working — a dangling order entry
// used to panic the process on the next listing.
func TestFailedInstallLeavesNoTrace(t *testing.T) {
	e := NewEnv()
	e.Shell.FS["labeled_code.yaml"] = sampleChart
	out, code := run(t, e, "helm install web -f labeled_code.yaml -n missing")
	if code == 0 {
		t.Fatalf("install into a missing namespace succeeded:\n%s", out)
	}
	out, code = run(t, e, "helm ls -n missing")
	if code != 0 {
		t.Fatalf("helm ls after failed install broke (exit %d):\n%s", code, out)
	}
	if strings.Contains(out, "web") {
		t.Errorf("failed install recorded a release:\n%s", out)
	}
	if _, code := run(t, e, "helm status web -n missing"); code == 0 {
		t.Error("failed install has a status")
	}
	// Nothing stranded in the cluster either.
	if _, code := run(t, e, "kubectl get deployment web -n missing"); code == 0 {
		t.Error("failed install stranded objects in the cluster")
	}
}

func TestUpgradeBumpsRevision(t *testing.T) {
	e := NewEnv()
	e.Shell.FS["labeled_code.yaml"] = sampleChart
	run(t, e, "helm install web -f labeled_code.yaml")
	run(t, e, "helm upgrade web -f labeled_code.yaml")
	out, _ := run(t, e, "helm status web")
	if !strings.Contains(out, "REVISION: 2") {
		t.Errorf("upgrade did not bump revision:\n%s", out)
	}
}

// TestFailedUpgradeKeepsLiveRelease: a failed upgrade must not delete
// the live release's objects — unlike a failed fresh install, there is
// a running revision to preserve.
func TestFailedUpgradeKeepsLiveRelease(t *testing.T) {
	e := NewEnv()
	e.Shell.FS["labeled_code.yaml"] = sampleChart
	run(t, e, "helm install web -f labeled_code.yaml")
	// An upgrade whose chart targets a missing namespace fails.
	e.Shell.FS["bad.yaml"] = strings.Replace(sampleChart, "metadata:\n  name: web\nspec:\n  replicas: 2",
		"metadata:\n  name: web\n  namespace: missing\nspec:\n  replicas: 2", 1)
	if out, code := run(t, e, "helm upgrade web -f bad.yaml"); code == 0 {
		t.Fatalf("upgrade into a missing namespace succeeded:\n%s", out)
	}
	if _, code := run(t, e, "kubectl get deployment web"); code != 0 {
		t.Error("failed upgrade deleted the live release's deployment")
	}
	out, _ := run(t, e, "helm status web")
	if !strings.Contains(out, "REVISION: 1") {
		t.Errorf("failed upgrade changed the release revision:\n%s", out)
	}
}

func TestResetClearsReleases(t *testing.T) {
	e := NewEnv()
	e.Shell.FS["labeled_code.yaml"] = sampleChart
	run(t, e, "helm install web -f labeled_code.yaml")
	e.Reset()
	if _, code := run(t, e, "helm status web"); code == 0 {
		t.Error("release survived reset")
	}
	if _, code := run(t, e, "kubectl get deployment web"); code == 0 {
		t.Error("cluster objects survived reset")
	}
}

// TestResetKeepsOneChunk bounds what a pooled helm environment keeps.
// A script installs 1,100 releases and then one chart of 1,100
// documents; Reset keeps one chunk of applied objects, no larger than
// yamlx.ChunkCap, drops the release table and the document list that
// outgrew it, and the environment then answers as a fresh one does.
func TestResetKeepsOneChunk(t *testing.T) {
	const n = 1100
	const cm = "apiVersion: v1\nkind: ConfigMap\nmetadata:\n  name: settings%d\n"
	var script, bundle strings.Builder
	for i := range n {
		fmt.Fprintf(&script, "helm install r%d -f cm.yaml > /dev/null\n", i)
		fmt.Fprintf(&bundle, "---\n"+cm, i)
	}
	script.WriteString("helm install big -f bundle.yaml > /dev/null\nhelm ls | grep -c deployed")
	e := NewEnv()
	e.Shell.FS["cm.yaml"] = fmt.Sprintf(cm, 0)
	e.Shell.FS["bundle.yaml"] = bundle.String()
	if out, code := run(t, e, script.String()); code != 0 || out != "1101\n" {
		t.Fatalf("installing %d releases: exit %d\n%s", n+1, code, out)
	}
	if cap(e.releases) <= yamlx.ChunkCap || cap(e.docs) <= yamlx.ChunkCap {
		t.Fatalf("the script left %d releases in storage of %d and a chart in storage of %d", len(e.releases), cap(e.releases), cap(e.docs))
	}
	e.Reset()
	if taken, capacity := e.applied.Held(); taken != 0 || capacity > yamlx.ChunkCap {
		t.Errorf("Reset left %d taken of a chunk of %d applied objects, want none of at most %d", taken, capacity, yamlx.ChunkCap)
	}
	if e.releases != nil || e.docs != nil {
		t.Errorf("Reset kept storage of %d releases and %d documents", cap(e.releases), cap(e.docs))
	}

	const again = "helm install web -f labeled_code.yaml\nhelm install cfg -f cm.yaml -n apps --create-namespace\nsleep 5\nhelm upgrade web -f labeled_code.yaml\nhelm ls -A\nhelm status web\nhelm uninstall cfg -n apps\nhelm ls -A"
	fresh := NewEnv()
	for _, env := range []*Env{e, fresh} {
		env.Shell.FS["labeled_code.yaml"] = sampleChart
		env.Shell.FS["cm.yaml"] = fmt.Sprintf(cm, 0)
	}
	want, wantCode := run(t, fresh, again)
	if got, code := run(t, e, again); got != want || code != wantCode {
		t.Errorf("after Reset the environment prints (exit %d)\n%s\na fresh one (exit %d)\n%s", code, got, wantCode, want)
	}
}
