package scenario

import (
	"strings"
	"testing"

	"cloudeval/internal/dataset"
	"cloudeval/internal/shell"
)

// Family-specific scripts that pollute an environment with every kind
// of state a unit test can create, and probes whose output must be
// identical between a recycled and a brand-new environment. This is
// TestPooledEnvNoLeak (internal/k8scmd/envpool_test.go) generalized to
// the scenario table: every family's pool must recycle
// to pristine, and no state may ever cross family pools.
var poolFixtures = map[dataset.Category]struct {
	seed  map[string]string // files installed before the dirty script
	dirty string
	probe string
}{
	dataset.Kubernetes: {
		seed:  map[string]string{"web.yaml": "apiVersion: apps/v1\nkind: Deployment\nmetadata:\n  name: web\nspec:\n  selector:\n    matchLabels: {app: web}\n  template:\n    metadata:\n      labels: {app: web}\n    spec:\n      containers:\n      - name: web\n        image: nginx\n"},
		dirty: "kubectl create namespace leaky\nkubectl apply -f web.yaml -n leaky\necho secret > leak.txt\nLEAKVAR=oops\nsleep 5\n",
		probe: "kubectl get ns default -o jsonpath='{.metadata.name}' && cat leak.txt; echo [$LEAKVAR]",
	},
	dataset.Envoy: {
		dirty: "kubectl create namespace leaky\necho secret > leak.txt\nLEAKVAR=oops\nsleep 5\n",
		probe: "kubectl get ns default -o jsonpath='{.metadata.name}' && cat leak.txt; echo [$LEAKVAR]",
	},
	dataset.Istio: {
		dirty: "kubectl create namespace leaky\necho secret > leak.txt\nLEAKVAR=oops\nsleep 5\n",
		probe: "kubectl get ns default -o jsonpath='{.metadata.name}' && cat leak.txt; echo [$LEAKVAR]",
	},
	dataset.Compose: {
		seed:  map[string]string{"app.yaml": "services:\n  leakweb:\n    image: nginx:latest\n    ports:\n    - \"8080:80\"\n"},
		dirty: "docker compose -f app.yaml up -d\necho secret > leak.txt\nLEAKVAR=oops\nsleep 5\n",
		probe: "docker compose ps; curl -s -o /dev/null -w \"%{http_code}\" http://localhost:8080/; cat leak.txt; echo [$LEAKVAR]",
	},
	dataset.Helm: {
		seed:  map[string]string{"chart.yaml": "apiVersion: v1\nkind: ConfigMap\nmetadata:\n  name: leaky\ndata:\n  k: v\n"},
		dirty: "helm install leaky -f chart.yaml\necho secret > leak.txt\nLEAKVAR=oops\nsleep 5\n",
		probe: "helm ls; kubectl get configmap leaky -o jsonpath='{.data}'; cat leak.txt; echo [$LEAKVAR]",
	},
}

// TestScenarioPoolNoLeakPerFamily recycles a polluted environment
// through each family's pool and requires it to be indistinguishable
// from a fresh one.
func TestScenarioPoolNoLeakPerFamily(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(string(b.Category), func(t *testing.T) {
			fx, ok := poolFixtures[b.Category]
			if !ok {
				t.Fatalf("no pool fixture for family %s — add one when registering a backend", b.Category)
			}
			dirty := b.GetEnv()
			for name, content := range fx.seed {
				dirty.Interp().FS[name] = content
			}
			execIn(t, dirty, fx.dirty)
			b.PutEnv(dirty)

			recycled := b.GetEnv()
			defer b.PutEnv(recycled)
			fresh := b.NewEnv()
			if _, ok := recycled.Interp().FS["leak.txt"]; ok {
				t.Error("file leaked through the pool")
			}
			for name := range fx.seed {
				if _, ok := recycled.Interp().FS[name]; ok {
					t.Errorf("seeded file %s leaked through the pool", name)
				}
			}
			if v, ok := recycled.Interp().Env["LEAKVAR"]; ok {
				t.Errorf("variable leaked through the pool: LEAKVAR=%q", v)
			}
			if !recycled.Now().Equal(fresh.Now()) {
				t.Errorf("virtual clock leaked: recycled %v, fresh %v", recycled.Now(), fresh.Now())
			}
			out1, code1 := execIn(t, recycled, fx.probe)
			out2, code2 := execIn(t, fresh, fx.probe)
			if out1 != out2 || code1 != code2 {
				t.Errorf("recycled env diverged from fresh env:\nrecycled: %q (%d)\nfresh:    %q (%d)",
					out1, code1, out2, code2)
			}
			if strings.Contains(out1, "oops") || strings.Contains(out1, "secret") {
				t.Error("leaked state observable in probe output")
			}
		})
	}
}

// execIn parses script and executes it in env.
func execIn(t *testing.T, env Env, script string) (stdout string, code int) {
	t.Helper()
	prog, err := shell.Parse(script)
	if err != nil {
		t.Fatalf("%v\n%s", err, script)
	}
	return env.Interp().Exec(prog)
}

// TestScenarioPoolNoCrossFamilyLeak pollutes one family's environment,
// recycles it, then draws an environment from every other family and
// requires it pristine — state must never cross pools.
func TestScenarioPoolNoCrossFamilyLeak(t *testing.T) {
	for _, polluter := range All() {
		fx := poolFixtures[polluter.Category]
		e := polluter.GetEnv()
		for name, content := range fx.seed {
			e.Interp().FS[name] = content
		}
		execIn(t, e, fx.dirty)
		polluter.PutEnv(e)

		for _, other := range All() {
			if other.Category == polluter.Category {
				continue
			}
			got := other.GetEnv()
			if _, ok := got.Interp().FS["leak.txt"]; ok {
				t.Errorf("%s → %s: file crossed family pools", polluter.Category, other.Category)
			}
			if _, ok := got.Interp().Env["LEAKVAR"]; ok {
				t.Errorf("%s → %s: variable crossed family pools", polluter.Category, other.Category)
			}
			other.PutEnv(got)
		}
	}
}

// runText is a pair of executions whose captures, assembled fields and
// pod names differ, each also piping a captured manifest into kubectl
// apply -f -: the strings a run keeps in its env's text arena.
var runText = [2]struct{ manifest, script string }{
	{
		manifest: "apiVersion: apps/v1\nkind: Deployment\nmetadata:\n  name: alpha\nspec:\n  replicas: 2\n  selector:\n    matchLabels: {app: alpha}\n  template:\n    metadata:\n      labels: {app: alpha}\n    spec:\n      containers:\n      - name: alpha\n        image: nginx\n",
		script: `m=$(cat labeled_code.yaml)
echo "$m" | kubectl apply -f -
kubectl wait --for=condition=Ready pods -l app=alpha --timeout=30s
pods=$(kubectl get pods -l app=alpha -o jsonpath='{.items[*].metadata.name}')
for p in $pods; do echo "pod=$p label=$(kubectl get pod $p -o jsonpath='{.metadata.labels.app}')"; done
echo first-$(echo $pods)-last
kubectl get deploy alpha -o jsonpath='{.status.readyReplicas}'`,
	},
	{
		manifest: "apiVersion: apps/v1\nkind: StatefulSet\nmetadata:\n  name: beta-store\nspec:\n  replicas: 3\n  selector:\n    matchLabels: {app: beta}\n  template:\n    metadata:\n      labels: {app: beta}\n    spec:\n      containers:\n      - name: beta\n        image: redis\n",
		script: `m=$(cat labeled_code.yaml)
echo "$m" | kubectl apply -f -
kubectl wait --for=condition=Ready pods -l app=beta --timeout=30s
pods=$(kubectl get pods -l app=beta -o jsonpath='{.items[*].metadata.name}')
echo all-$(echo $pods)-done
echo "$m" | kubectl apply -f -`,
	},
}

// TestResultsOutliveRunText runs execution A on an environment, keeps
// what it returned, recycles the environment as PutEnv does and runs B,
// whose run-scoped strings land where A's were: A's output must be
// unchanged, so it does not point into the text arena, and A run again
// on the recycled environment must give it again, whatever the process
// caches kept of A's first run (the manifest A pipes into kubectl apply
// -f - is a yamlx document cache key).
func TestResultsOutliveRunText(t *testing.T) {
	env := For(dataset.Kubernetes).NewEnv()
	run := func(i int) (string, int) {
		defer env.Reset()
		env.Interp().FS["labeled_code.yaml"] = runText[i].manifest
		return execIn(t, env, runText[i].script)
	}
	outA, codeA := run(0)
	kept := strings.Clone(outA)
	if codeA != 0 || !strings.Contains(outA, "label=alpha") || !strings.Contains(outA, "first-alpha-") {
		t.Fatalf("A: exit %d, output %q", codeA, outA)
	}
	for i := 0; i < 3; i++ {
		if outB, code := run(1); code != 0 || !strings.Contains(outB, "all-beta-store-0 beta-store-1 beta-store-2-done") {
			t.Fatalf("B: exit %d, output %q", code, outB)
		}
		if outA != kept {
			t.Fatalf("A's output changed after B ran:\n%q\nwas\n%q", outA, kept)
		}
		if again, code := run(0); again != kept || code != codeA {
			t.Fatalf("A again: exit %d, output\n%q\nwant exit %d,\n%q", code, again, codeA, kept)
		}
	}
}
