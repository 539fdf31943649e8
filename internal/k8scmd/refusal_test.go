package k8scmd

import (
	"testing"

	"cloudeval/internal/raceflag"
	"cloudeval/internal/shell"
)

// refusedCommands fail on kubesim's refusals: what each says when its
// stderr is read, and the file it reads, if any, as bad.yaml.
var refusedCommands = []struct{ name, file, script, stderr string }{
	{
		name:   "selector mismatch",
		file:   "apiVersion: apps/v1\nkind: Deployment\nmetadata:\n  name: web\nspec:\n  selector:\n    matchLabels: {app: web}\n  template:\n    metadata:\n      labels: {app: api}\n    spec:\n      containers:\n      - name: web\n        image: nginx\n",
		script: "kubectl apply -f bad.yaml",
		stderr: `Error from server (BadRequest): error when creating "bad.yaml": error validating Deployment: "spec.template.metadata.labels" does not match selector "app=web"` + "\n",
	},
	{
		name:   "unknown kind",
		file:   "apiVersion: v1\nkind: Widget\nmetadata:\n  name: w\n",
		script: "kubectl apply -f bad.yaml",
		stderr: `Error from server (BadRequest): error when creating "bad.yaml": error: unable to recognize: no matches for kind "Widget" in version "v1"` + "\n",
	},
	{
		name:   "missing namespace",
		file:   "apiVersion: v1\nkind: ConfigMap\nmetadata:\n  name: cm\n  namespace: nope\n",
		script: "kubectl apply -f bad.yaml",
		stderr: `Error from server (BadRequest): error when creating "bad.yaml": namespaces "nope" not found` + "\n",
	},
	{
		name:   "wait on a missing name",
		script: "kubectl wait --for=condition=Ready pod/nope --timeout=1s",
		stderr: `error: pod "nope" not found` + "\n",
	},
	{
		name:   "describe on a missing name",
		script: "kubectl describe ingress nope",
		stderr: `Error from server (NotFound): ingress "nope" not found` + "\n",
	},
}

// TestRefusalsUnreadAllocateNothing: a command the cluster refuses says
// so on stderr when someone reads it, and when nobody does — Exec
// without a Watch, as unittest.Run executes — the refusal is never
// worded, so the failing command, and the Reset that recycles its Env,
// allocate nothing.
func TestRefusalsUnreadAllocateNothing(t *testing.T) {
	for _, c := range refusedCommands {
		t.Run(c.name, func(t *testing.T) {
			env := NewEnv()
			env.Shell.FS["bad.yaml"] = c.file
			if stdout, stderr, code := runIn(t, env, c.script); stdout != "" || stderr != c.stderr || code != 1 {
				t.Fatalf("stdout %q, stderr %q, exit %d; want stderr %q, exit 1", stdout, stderr, code, c.stderr)
			}
			if raceflag.Enabled {
				return
			}
			prog, err := shell.Parse(c.script)
			if err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(100, func() {
				env.Reset()
				env.Shell.FS["bad.yaml"] = c.file
				env.Shell.Exec(prog)
			})
			if allocs != 0 {
				t.Errorf("%.0f allocations per refused %s, want 0", allocs, c.script)
			}
		})
	}
}
