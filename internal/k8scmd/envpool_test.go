package k8scmd

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"cloudeval/internal/kubesim"
	"cloudeval/internal/shell"
	"cloudeval/internal/yamlx"
)

// TestPooledEnvNoLeak is the regression test for environment
// recycling: nothing one execution does — files written, variables
// set, namespaces created, workloads applied, envoy started,
// virtual time consumed — may survive Env.Reset, the wipe the
// per-family scenario pools run on every put (the k8s-tools
// instantiation of the contract; internal/scenario/pool_test.go
// checks the same property through every family's registered pool).
func TestPooledEnvNoLeak(t *testing.T) {
	pool := sync.Pool{New: func() any { return NewEnv() }}
	first := pool.Get().(*Env)
	script := `
kubectl create namespace leaky
kubectl apply -f seed.yaml -n leaky
echo secret > /tmp/leak.txt
LEAKVAR=oops
sleep 5
`
	first.Shell.FS["seed.yaml"] = "apiVersion: apps/v1\nkind: Deployment\nmetadata:\n  name: web\nspec:\n  selector:\n    matchLabels: {app: web}\n  template:\n    metadata:\n      labels: {app: web}\n    spec:\n      containers:\n      - name: web\n        image: nginx\n"
	runIn(t, first, script)
	if !first.Cluster.HasNamespace("leaky") {
		t.Fatal("setup failed: namespace not created")
	}
	first.Reset()
	pool.Put(first)

	// The recycled env must be indistinguishable from a fresh one.
	recycled := pool.Get().(*Env)
	fresh := NewEnv()
	if recycled.Cluster.HasNamespace("leaky") {
		t.Error("namespace leaked through the pool")
	}
	if _, ok := recycled.Shell.FS["/tmp/leak.txt"]; ok {
		t.Error("file leaked through the pool")
	}
	if _, ok := recycled.Shell.FS["seed.yaml"]; ok {
		t.Error("seeded file leaked through the pool")
	}
	if v, ok := recycled.Shell.Env["LEAKVAR"]; ok {
		t.Errorf("variable leaked through the pool: LEAKVAR=%q", v)
	}
	if recycled.Envoy != nil {
		t.Error("envoy bootstrap leaked through the pool")
	}
	if !recycled.Cluster.Now().Equal(fresh.Cluster.Now()) {
		t.Errorf("virtual clock leaked: recycled %v, fresh %v", recycled.Cluster.Now(), fresh.Cluster.Now())
	}

	// And it must behave identically: the same script produces the
	// same output in a recycled env as in a fresh one.
	out1, _, code1 := runIn(t, recycled, "kubectl get ns default -o name && echo $LEAKVAR done")
	out2, _, code2 := runIn(t, fresh, "kubectl get ns default -o name && echo $LEAKVAR done")
	if out1 != out2 || code1 != code2 {
		t.Errorf("recycled env diverged from fresh env:\nrecycled: %q (%d)\nfresh:    %q (%d)",
			out1, code1, out2, code2)
	}
	if strings.Contains(out1, "oops") {
		t.Error("leaked variable observable in output")
	}

	// A second cycle: the Deployment's and its pods' buckets were
	// written and reset; a Service is written now and reset, and all
	// three stay empty.
	recycled.Shell.FS["svc.yaml"] = "apiVersion: v1\nkind: Service\nmetadata:\n  name: front\nspec:\n  selector: {app: web}\n  ports: [{port: 80}]\n"
	if stdout, stderr, code := runIn(t, recycled, "kubectl apply -f svc.yaml"); code != 0 {
		t.Fatalf("service apply: stdout %q, stderr %q, exit %d", stdout, stderr, code)
	}
	recycled.Reset()
	for _, r := range []*kubesim.Resource{kubesim.Deployment, kubesim.Pod, kubesim.Service} {
		if objs := recycled.Cluster.ListObjects(nil, r, "*", nil); len(objs) != 0 {
			t.Errorf("%d %s objects survived Reset", len(objs), r.Plural)
		}
	}
	const listAll = "kubectl get deployments -A -o name; kubectl get pods -A -o name; kubectl get services -A -o name"
	out1, err1, code1 := runIn(t, recycled, listAll)
	out2, err2, code2 := runIn(t, NewEnv(), listAll)
	if out1 != out2 || err1 != err2 || code1 != code2 {
		t.Errorf("after two resets: %q %q %d, a fresh env: %q %q %d", out1, err1, code1, out2, err2, code2)
	}
}

// The measurement behind the environment-recycling design choice (see
// DESIGN.md §2.6): BenchmarkEnvFresh is the clone-from-prototype
// contender reduced to its floor — NewEnv already stamps environments
// out of shared immutable state (the core builtin table, the cached
// ASTs and documents), so a structured clone could at best match it —
// and BenchmarkEnvPooled is the pooled reset the scenario pools run.
// The pooled variant wins because Reset retains map bucket capacity
// and builtin bindings that a rebuild (or clone) pays for every time;
// scenario.Backend.GetEnv/PutEnv therefore recycle rather than
// rebuild.
func BenchmarkEnvFresh(b *testing.B) {
	version, _ := shell.Parse("kubectl version")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEnv()
		e.Shell.FS["labeled_code.yaml"] = "kind: Pod"
		e.Shell.Exec(version)
	}
}

func BenchmarkEnvPooled(b *testing.B) {
	pool := sync.Pool{New: func() any { return NewEnv() }}
	version, _ := shell.Parse("kubectl version")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := pool.Get().(*Env)
		e.Shell.FS["labeled_code.yaml"] = "kind: Pod"
		e.Shell.Exec(version)
		e.Reset()
		pool.Put(e)
	}
}

// TestResetDropsLongListings bounds the listing storage a pooled Env
// keeps. An answer of seven workloads at the replica cap lists 1,190
// pods in one get; Reset lets go of storage that long, so it does not
// stay with the Env for every execution after.
func TestResetDropsLongListings(t *testing.T) {
	var manifest strings.Builder
	for i := range 7 {
		fmt.Fprintf(&manifest, "---\napiVersion: apps/v1\nkind: Deployment\nmetadata: {name: web%d}\nspec:\n  replicas: 170\n  selector: {matchLabels: {app: web}}\n  template:\n    metadata: {labels: {app: web}}\n    spec: {containers: [{name: c, image: nginx}]}\n", i)
	}
	env := NewEnv()
	env.Shell.FS["labeled_code.yaml"] = manifest.String()
	if stdout, stderr, code := runIn(t, env, "kubectl apply -f labeled_code.yaml\nkubectl get pods -A -o name > /dev/null"); code != 0 {
		t.Fatalf("stdout %q, stderr %q, exit %d", stdout, stderr, code)
	}
	if cap(env.docs) <= yamlx.ChunkCap {
		t.Fatalf("the get listed into storage of %d documents, want more than %d", cap(env.docs), yamlx.ChunkCap)
	}
	env.Reset()
	if env.docs != nil {
		t.Errorf("Reset kept listing storage of %d documents", cap(env.docs))
	}
}
