package kubesim

import (
	"strings"
	"testing"
	"time"

	"cloudeval/internal/yamlx"
)

// TestObjectConditionMatchesStatus pins ObjectCondition — the fast
// predicate the wait loop polls — to hasCondition over the rendered
// status document, for every kind and condition the status builders
// emit, at times before and after each transition. If a status builder
// gains or changes a condition, this test forces ObjectCondition to
// follow.
func TestObjectConditionMatchesStatus(t *testing.T) {
	manifests := map[string]string{
		"pod": `apiVersion: v1
kind: Pod
metadata:
  name: probe
spec:
  containers:
  - name: c
    image: nginx
`,
		"pod-bad": `apiVersion: v1
kind: Pod
metadata:
  name: broken
spec:
  containers:
  - name: c
    image: "not a valid image"
`,
		"deployment": `apiVersion: apps/v1
kind: Deployment
metadata:
  name: web
spec:
  replicas: 2
  selector:
    matchLabels: {app: web}
  template:
    metadata:
      labels: {app: web}
    spec:
      containers:
      - name: web
        image: nginx
`,
		"statefulset": `apiVersion: apps/v1
kind: StatefulSet
metadata:
  name: db
spec:
  replicas: 1
  selector:
    matchLabels: {app: db}
  template:
    metadata:
      labels: {app: db}
    spec:
      containers:
      - name: db
        image: postgres:16
`,
		"daemonset": `apiVersion: apps/v1
kind: DaemonSet
metadata:
  name: agent
spec:
  selector:
    matchLabels: {app: agent}
  template:
    metadata:
      labels: {app: agent}
    spec:
      containers:
      - name: agent
        image: fluentd
`,
		"job": `apiVersion: batch/v1
kind: Job
metadata:
  name: once
spec:
  template:
    spec:
      containers:
      - name: run
        image: busybox
`,
		"service": `apiVersion: v1
kind: Service
metadata:
  name: svc
spec:
  selector: {app: web}
  ports:
  - port: 80
`,
	}
	conditions := []string{
		"Ready", "ContainersReady", "Initialized", "PodScheduled",
		"Available", "Progressing", "Complete", "ready", "COMPLETE",
		"Nonexistent",
	}
	// Probe instants: creation, mid-flight, after pod readiness, after
	// job completion.
	offsets := []time.Duration{0, time.Second, PodReadyDelay, JobCompleteTime, 10 * time.Second}

	c := NewCluster()
	for name, src := range manifests {
		if _, err := c.ApplyYAML(nil, src, "default"); err != nil {
			t.Fatalf("apply %s: %v", name, err)
		}
	}
	for _, off := range offsets {
		c.AdvanceTime(off)
		for _, kind := range []string{"pod", "deployment", "statefulset", "daemonset", "job", "service", "replicaset"} {
			for _, obj := range c.ListObjects(nil, mustResource(kind), "*", nil) {
				doc := c.withStatus(obj)
				for _, cond := range conditions {
					fast := c.ObjectCondition(obj, cond)
					slow := hasCondition(doc, cond)
					if fast != slow {
						t.Errorf("at +%v: %s %s condition %q: ObjectCondition=%v, hasCondition(withStatus)=%v",
							off, obj.Resource.Kind, obj.Name, cond, fast, slow)
					}
				}
			}
		}
	}
}

// hasCondition reports whether a rendered document's status.conditions
// include the given type (case-insensitive) with status "True": the
// reading of the built document that ObjectCondition must agree with.
func hasCondition(n *yamlx.Node, condType string) bool {
	conds := n.Path("status", "conditions")
	if conds == nil || conds.Kind != yamlx.SeqKind {
		return false
	}
	for _, cd := range conds.Items {
		if strings.EqualFold(cd.Get("type").ScalarString(), condType) {
			return strings.EqualFold(cd.Get("status").ScalarString(), "True")
		}
	}
	return false
}
