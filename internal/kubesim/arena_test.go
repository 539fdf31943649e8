package kubesim_test

import (
	"strings"
	"testing"

	"cloudeval/internal/k8scmd"
	"cloudeval/internal/kubesim"
	"cloudeval/internal/shell"
	"cloudeval/internal/yamlx"
)

// TestResetKeepsOneChunk bounds what a pooled cluster keeps. A hostile
// script polls its pods thousands of times, each poll a second later,
// so every poll rebuilds every pod's status document and the arena
// fills chunk after chunk, none larger than yamlx.ChunkCap. Reset keeps
// the current chunk of each element type, rewound for the next
// execution to fill again, and the cluster answers as a fresh one does.
func TestResetKeepsOneChunk(t *testing.T) {
	const manifest = `apiVersion: apps/v1
kind: Deployment
metadata: {name: web, labels: {app: web}}
spec:
  replicas: 3
  selector: {matchLabels: {app: web}}
  template:
    metadata: {labels: {app: web}}
    spec:
      containers: [{name: c, image: nginx}]
`
	env := k8scmd.NewEnv()
	env.Shell.FS["labeled_code.yaml"] = manifest
	prog, err := shell.Parse("kubectl apply -f labeled_code.yaml\n" +
		strings.Repeat("sleep 1; kubectl get pods -o yaml > /dev/null\n", 3000))
	if err != nil {
		t.Fatal(err)
	}
	if stdout, code := env.Shell.Exec(prog); code != 0 {
		t.Fatalf("polling script: stdout %q, exit %d", stdout, code)
	}
	names := [4]string{"nodes", "entries", "items", "objects"}
	_, polled := kubesim.Held(env.Cluster)
	for i, n := range polled[:3] {
		if n != yamlx.ChunkCap {
			t.Errorf("the script left a chunk of %d %s, want the cap %d", n, names[i], yamlx.ChunkCap)
		}
	}
	env.Reset()
	taken, kept := kubesim.Held(env.Cluster)
	if taken != [4]int{} || kept != polled {
		t.Errorf("Reset left %v taken of chunks of %v %s, want none taken of %v", taken, kept, names, polled)
	}

	get, _ := shell.Parse("kubectl apply -f labeled_code.yaml\nsleep 5\nkubectl get pods -o yaml")
	fresh := k8scmd.NewEnv()
	fresh.Shell.FS["labeled_code.yaml"] = manifest
	env.Shell.FS["labeled_code.yaml"] = manifest
	want, _ := fresh.Shell.Exec(get)
	if got, _ := env.Shell.Exec(get); got != want {
		t.Errorf("after Reset the cluster prints\n%s\na fresh one\n%s", got, want)
	}
}

// TestCreateRoleInArena: the Role kubectl create applies, built in the
// cluster's arena, reads as the manifest kubectl writes: the CSV flags
// split on commas with empty items dropped, past the eight items that
// fit on the stack too.
func TestCreateRoleInArena(t *testing.T) {
	c := kubesim.NewCluster()
	many := "a,b,c,d,e,f,g,h,i,j"
	for _, tc := range []struct {
		r                       *kubesim.Resource
		verbs, resources, rules string
	}{
		{kubesim.Role, "get,,list,", "", "- apiGroups:\n  - \"\"\n  verbs:\n  - get\n  - list\n  resources: []\n"},
		{kubesim.ClusterRole, "get", many, "- apiGroups:\n  - \"\"\n  verbs:\n  - get\n  resources:\n  - a\n  - b\n  - c\n  - d\n  - e\n  - f\n  - g\n  - h\n  - i\n  - j\n"},
	} {
		res, err := c.CreateRole(tc.r, "default", "reader", tc.verbs, tc.resources)
		if err != nil || res.Resource != tc.r || !res.Created {
			t.Fatalf("CreateRole(%s): %+v, %v", tc.r.Kind, res, err)
		}
		doc, ok := c.GetByName(tc.r, "default", "reader")
		if !ok {
			t.Fatalf("no %s after CreateRole", tc.r.Kind)
		}
		if got := doc.Get("apiVersion").ScalarString() + " " + doc.Get("kind").ScalarString(); got != tc.r.Versions[0]+" "+tc.r.Kind {
			t.Errorf("head %q", got)
		}
		if got := string(yamlx.Marshal(doc.Get("rules"))); got != tc.rules {
			t.Errorf("%s rules:\n%s\nwant\n%s", tc.r.Kind, got, tc.rules)
		}
	}
}
