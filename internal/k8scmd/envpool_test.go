package k8scmd

import (
	"strings"
	"sync"
	"testing"
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
	if _, err := first.Shell.Run(script); err != nil {
		t.Fatalf("first run: %v", err)
	}
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
	out1, err1 := recycled.Shell.Run("kubectl get ns default -o name && echo $LEAKVAR done")
	out2, err2 := fresh.Shell.Run("kubectl get ns default -o name && echo $LEAKVAR done")
	if err1 != nil || err2 != nil {
		t.Fatalf("runs errored: %v / %v", err1, err2)
	}
	if out1.Stdout != out2.Stdout || out1.ExitCode != out2.ExitCode {
		t.Errorf("recycled env diverged from fresh env:\nrecycled: %q (%d)\nfresh:    %q (%d)",
			out1.Stdout, out1.ExitCode, out2.Stdout, out2.ExitCode)
	}
	if strings.Contains(out1.Stdout, "oops") {
		t.Error("leaked variable observable in output")
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
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEnv()
		e.Shell.FS["labeled_code.yaml"] = "kind: Pod"
		if _, err := e.Shell.Run("kubectl version"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEnvPooled(b *testing.B) {
	pool := sync.Pool{New: func() any { return NewEnv() }}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := pool.Get().(*Env)
		e.Shell.FS["labeled_code.yaml"] = "kind: Pod"
		if _, err := e.Shell.Run("kubectl version"); err != nil {
			b.Fatal(err)
		}
		e.Reset()
		pool.Put(e)
	}
}
