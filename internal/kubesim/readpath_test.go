package kubesim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"cloudeval/internal/yamlx"
)

func podManifest(name, ns, app, image string) string {
	return fmt.Sprintf(`apiVersion: v1
kind: Pod
metadata:
  name: %s
  namespace: %s
  labels: {app: %s}
spec:
  containers:
  - name: c
    image: %q
`, name, ns, app, image)
}

func workloadManifest(kind, name, ns, app string, replicas int) string {
	return fmt.Sprintf(`apiVersion: apps/v1
kind: %s
metadata:
  name: %s
  namespace: %s
  labels: {app: %s}
spec:
  replicas: %d
  selector:
    matchLabels: {app: %s}
  template:
    metadata:
      labels: {app: %s}
    spec:
      containers:
      - name: c
        image: nginx
`, kind, name, ns, app, replicas, app, app)
}

func jobManifest(name, ns string) string {
	return fmt.Sprintf(`apiVersion: batch/v1
kind: Job
metadata:
  name: %s
  namespace: %s
  labels: {app: batch}
spec:
  template:
    spec:
      containers:
      - name: run
        image: busybox
      restartPolicy: Never
`, name, ns)
}

func serviceManifest(name, ns, app, typ string) string {
	return fmt.Sprintf(`apiVersion: v1
kind: Service
metadata:
  name: %s
  namespace: %s
spec:
  type: %s
  selector: {app: %s}
  ports:
  - port: 80
`, name, ns, typ, app)
}

// drawManifest draws one of the manifests the status builders have a
// branch for: pods that start and pods that cannot, workloads of zero
// to three replicas, jobs, the three service types.
func drawManifest(rng *rand.Rand, ns string) string {
	name := []string{"a", "b", "c"}[rng.Intn(3)]
	app := []string{"web", "db"}[rng.Intn(2)]
	switch rng.Intn(7) {
	case 0:
		return podManifest(name, ns, app, "nginx")
	case 1:
		return podManifest(name, ns, app, "not a valid image")
	case 2:
		return workloadManifest("Deployment", name, ns, app, rng.Intn(4))
	case 3:
		return workloadManifest("StatefulSet", name, ns, app, 1+rng.Intn(2))
	case 4:
		return workloadManifest("DaemonSet", name, ns, app, 1)
	case 5:
		return jobManifest(name, ns)
	default:
		return serviceManifest(name, ns, app, []string{"ClusterIP", "NodePort", "LoadBalancer"}[rng.Intn(3)])
	}
}

// TestStatusMemoNeverStale drives a cluster through random applies,
// re-applies, deletes, namespace deletions and clock advances, reading
// in between. After every step each object's memoised status document
// marshals exactly as one built from scratch; reading again with nothing
// in between returns the same document; after a change, a new one.
func TestStatusMemoNeverStale(t *testing.T) {
	kinds := []string{"pod", "deployment", "statefulset", "daemonset", "job", "service"}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := NewCluster()
		if err := c.CreateNamespace("other"); err != nil {
			t.Fatal(err)
		}
		last := map[*Object]*yamlx.Node{}
		for step := 0; step < 150; step++ {
			ns := []string{"default", "other"}[rng.Intn(2)]
			changed, read := false, false
			switch op := rng.Intn(10); {
			case op < 4:
				_, err := c.ApplyYAML(nil, drawManifest(rng, ns), "default")
				changed = err == nil
			case op < 5:
				changed = c.Delete(mustResource(kinds[rng.Intn(len(kinds))]), ns, []string{"a", "b", "c"}[rng.Intn(3)]) == nil
			case op < 6:
				if rng.Intn(4) == 0 {
					changed = c.DeleteNamespace("other") == nil
				} else {
					changed = c.CreateNamespace("other") == nil
				}
			case op < 8:
				d := time.Duration(rng.Intn(5)) * 1500 * time.Millisecond
				c.AdvanceTime(d)
				changed = d > 0
			default:
				read = true
				c.List(nil, mustResource(kinds[rng.Intn(len(kinds))]), "*", nil)
				c.GetByName(Pod, ns, "a")
			}
			now := map[*Object]*yamlx.Node{}
			for _, bucket := range c.objects {
				for _, obj := range bucket {
					doc := c.withStatus(obj)
					now[obj] = doc
					if again := c.withStatus(obj); again != doc {
						t.Fatalf("seed %d step %d: %s/%s: two reads with nothing in between built two documents", seed, step, obj.Resource.Kind, obj.Name)
					}
					if got, want := yamlx.MarshalString(doc), yamlx.MarshalString(c.buildStatus(obj)); got != want {
						t.Fatalf("seed %d step %d: %s/%s: memoised status is stale\n--- memoised\n%s--- from scratch\n%s", seed, step, obj.Resource.Kind, obj.Name, got, want)
					}
					if prev, ok := last[obj]; ok && changed && prev == doc {
						t.Fatalf("seed %d step %d: %s/%s: same document after the cluster changed", seed, step, obj.Resource.Kind, obj.Name)
					} else if ok && read && prev != doc {
						t.Fatalf("seed %d step %d: %s/%s: a read rebuilt the document", seed, step, obj.Resource.Kind, obj.Name)
					}
				}
			}
			last = now
		}
	}
}

// waitForOracle is WaitFor as it was before targets were resolved once:
// every 500 ms step lists, filters and sorts the targets again.
func waitForOracle(c *Cluster, opts WaitOptions) error {
	if opts.Timeout <= 0 {
		opts.Timeout = 30 * time.Second
	}
	deadline := c.now.Add(opts.Timeout)
	const step = 500 * time.Millisecond
	for {
		targets := c.waitTargets(nil, opts)
		if len(targets) == 0 {
			if len(opts.Names) > 0 {
				return fmt.Errorf("error: %s %q not found", opts.Resource.Singular, strings.Join(opts.Names, ", "))
			}
			return fmt.Errorf("error: no matching resources found")
		}
		if c.allConditionsTrue(targets, opts.Condition) {
			return nil
		}
		if !c.now.Before(deadline) {
			return fmt.Errorf("error: timed out waiting for the condition on %s", opts.Resource.Singular)
		}
		c.AdvanceTime(step)
	}
}

// TestWaitMatchesSteppingOracle: on seeded clusters, a wait by name, by
// selector, on --all, on something missing, on something that never
// becomes ready and on a timeout too short ends with the same error
// text at the same virtual instant as the loop that re-resolved its
// targets at every step.
func TestWaitMatchesSteppingOracle(t *testing.T) {
	build := func(seed int64) *Cluster {
		rng := rand.New(rand.NewSource(seed))
		c := NewCluster()
		if err := c.CreateNamespace("other"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			// Errors are part of the draw: a re-apply may fail validation.
			c.ApplyYAML(nil, drawManifest(rng, []string{"default", "other"}[rng.Intn(2)]), "default")
			c.AdvanceTime(time.Duration(rng.Intn(4)) * 700 * time.Millisecond)
		}
		return c
	}
	errText := func(err error) string {
		if err == nil {
			return "<nil>"
		}
		return err.Error()
	}
	waits := 0
	for seed := int64(1); seed <= 40; seed++ {
		for _, kind := range []string{"pod", "pods", "deployment", "deploy", "statefulset", "daemonset", "job", "service"} {
			for _, cond := range []string{"Ready", "Available", "Complete", "ready"} {
				for _, opts := range []WaitOptions{
					{Names: []string{"a"}},
					{Names: []string{"a", "b"}},
					{Names: []string{"missing"}},
					{Names: []string{"missing", "c"}, Namespace: "other"},
					{Selector: mustSelector("app=web")},
					{Selector: mustSelector("app=db"), Namespace: "other"},
					{Selector: mustSelector("app=nothing")},
					{All: true},
					{All: true, Namespace: "*"},
					{All: true, Timeout: time.Second},
					{Names: []string{"b"}, Timeout: 1200 * time.Millisecond},
					{All: true, Timeout: 120 * time.Second},
				} {
					opts.Resource, opts.Condition = mustResource(kind), cond
					got, want := build(seed), build(seed)
					gotErr, wantErr := got.WaitFor(opts), waitForOracle(want, opts)
					if errText(gotErr) != errText(wantErr) || !got.Now().Equal(want.Now()) {
						t.Errorf("seed %d, wait %+v:\n  WaitFor: %s at %v\n  oracle:  %s at %v", seed, opts,
							errText(gotErr), got.Now().Sub(epoch), errText(wantErr), want.Now().Sub(epoch))
					}
					waits++
				}
			}
		}
	}
	t.Logf("%d waits compared", waits)
}
