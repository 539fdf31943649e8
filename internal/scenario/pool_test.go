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
