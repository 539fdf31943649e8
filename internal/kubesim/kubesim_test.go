package kubesim

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"cloudeval/internal/jsonpath"
	"cloudeval/internal/raceflag"
	"cloudeval/internal/yamlx"
)

const nginxDeployment = `apiVersion: apps/v1
kind: Deployment
metadata:
  name: nginx-deployment
spec:
  replicas: 3
  selector:
    matchLabels:
      app: nginx
  template:
    metadata:
      labels:
        app: nginx
    spec:
      containers:
      - name: nginx-container
        image: nginx:latest
        ports:
        - containerPort: 80
`

const nginxLBService = `apiVersion: v1
kind: Service
metadata:
  name: nginx-service
spec:
  selector:
    app: nginx
  ports:
  - name: http
    port: 80
    targetPort: 80
  type: LoadBalancer
`

const registryDaemonSet = `apiVersion: apps/v1
kind: DaemonSet
metadata:
  name: kube-registry-proxy
spec:
  selector:
    matchLabels:
      app: kube-registry
  template:
    metadata:
      labels:
        app: kube-registry
    spec:
      containers:
      - name: kube-registry-proxy
        image: nginx:latest
        env:
        - name: REGISTRY_HOST
          value: kube-registry.svc.cluster.local
        - name: REGISTRY_PORT
          value: "5000"
        resources:
          limits:
            cpu: 100m
            memory: 50Mi
        ports:
        - name: registry
          containerPort: 80
          hostPort: 5000
`

func TestApplyDeploymentCreatesPods(t *testing.T) {
	c := NewCluster()
	res, err := c.ApplyYAML(nil, nginxDeployment, "default")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || !res[0].Created {
		t.Fatalf("apply results = %+v", res)
	}
	pods := c.List(Pod, "default", mustSelector("app=nginx"))
	if len(pods) != 3 {
		t.Fatalf("got %d pods, want 3", len(pods))
	}
	// Not ready yet: no time has passed.
	for _, p := range pods {
		if HasCondition(p, "Ready") {
			t.Error("pod should not be Ready at t=0")
		}
	}
	c.AdvanceTime(PodReadyDelay)
	for _, p := range c.List(Pod, "default", mustSelector("app=nginx")) {
		if !HasCondition(p, "Ready") {
			t.Error("pod should be Ready after the readiness delay")
		}
	}
}

func TestWaitForPodsReady(t *testing.T) {
	c := NewCluster()
	if _, err := c.ApplyYAML(nil, nginxDeployment, "default"); err != nil {
		t.Fatal(err)
	}
	start := c.Now()
	err := c.WaitFor(WaitOptions{Resource: Pod, Namespace: "default", Selector: mustSelector("app=nginx"), Condition: "Ready", Timeout: 60 * time.Second})
	if err != nil {
		t.Fatalf("wait failed: %v", err)
	}
	if elapsed := c.Now().Sub(start); elapsed > 10*time.Second {
		t.Errorf("wait advanced %v of virtual time, want about %v", elapsed, PodReadyDelay)
	}
}

func TestWaitTimesOut(t *testing.T) {
	c := NewCluster()
	err := c.WaitFor(WaitOptions{Resource: Pod, Selector: mustSelector("app=missing"), Condition: "Ready", Timeout: 5 * time.Second})
	if err == nil {
		t.Fatal("wait on nothing should error")
	}
	if !strings.Contains(err.Error(), "no matching resources") {
		t.Errorf("err = %v", err)
	}
}

func TestDeploymentAvailableCondition(t *testing.T) {
	c := NewCluster()
	if _, err := c.ApplyYAML(nil, nginxDeployment, "default"); err != nil {
		t.Fatal(err)
	}
	err := c.WaitFor(WaitOptions{Resource: Deployment, Namespace: "default", All: true, Condition: "available", Timeout: 30 * time.Second})
	if err != nil {
		t.Fatalf("deployment never became available: %v", err)
	}
}

func TestServiceEndpointsAndURL(t *testing.T) {
	c := NewCluster()
	if _, err := c.ApplyYAML(nil, nginxDeployment, "default"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ApplyYAML(nil, nginxLBService, "default"); err != nil {
		t.Fatal(err)
	}
	c.AdvanceTime(10 * time.Second)
	url, err := c.ServiceURL("default", "nginx-service")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(url, "http://"+NodeIP+":3") {
		t.Errorf("url = %q", url)
	}
	svc, _ := c.GetObject(Service, "default", "nginx-service")
	if got := len(c.ServiceEndpoints(svc)); got != 3 {
		t.Errorf("endpoints = %d, want 3", got)
	}
	// LB answers on its service port at the node IP.
	code, body, ok := c.HTTPProbe(NodeIP, 80)
	if !ok || code != 200 {
		t.Errorf("probe = %d %v", code, ok)
	}
	if !strings.Contains(body, "nginx") {
		t.Errorf("body = %q", body)
	}
}

func TestServiceWithoutEndpointsIs503(t *testing.T) {
	c := NewCluster()
	if _, err := c.ApplyYAML(nil, nginxLBService, "default"); err != nil {
		t.Fatal(err)
	}
	c.AdvanceTime(10 * time.Second)
	code, _, ok := c.HTTPProbe(NodeIP, 80)
	if !ok || code != 503 {
		t.Errorf("probe with no endpoints = %d %v, want 503", code, ok)
	}
}

func TestDaemonSetHostPortProbe(t *testing.T) {
	c := NewCluster()
	if _, err := c.ApplyYAML(nil, registryDaemonSet, "default"); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitFor(WaitOptions{Resource: Pod, Namespace: "default", Selector: mustSelector("app=kube-registry"), Condition: "Ready", Timeout: 60 * time.Second}); err != nil {
		t.Fatal(err)
	}
	pods := c.List(Pod, "default", mustSelector("app=kube-registry"))
	if len(pods) != 1 {
		t.Fatalf("daemonset pods = %d, want 1 on single-node cluster", len(pods))
	}
	hostIP, err := jsonpath.Eval(pods[0], "{.status.hostIP}")
	if err != nil || hostIP != NodeIP {
		t.Fatalf("hostIP = %q, %v", hostIP, err)
	}
	code, _, ok := c.HTTPProbe(hostIP, 5000)
	if !ok || code != 200 {
		t.Errorf("hostPort probe = %d %v, want 200", code, ok)
	}
	if _, _, ok := c.HTTPProbe(hostIP, 5001); ok {
		t.Error("probe on unexposed port should refuse")
	}
}

func TestNamespaces(t *testing.T) {
	c := NewCluster()
	if err := c.CreateNamespace("development"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateNamespace("development"); err == nil {
		t.Error("duplicate namespace should error")
	}
	rb := `apiVersion: rbac.authorization.k8s.io/v1
kind: RoleBinding
metadata:
  name: read-secrets
  namespace: development
subjects:
- kind: User
  name: dave
  apiGroup: rbac.authorization.k8s.io
roleRef:
  kind: ClusterRole
  name: secret-reader
  apiGroup: rbac.authorization.k8s.io
`
	if _, err := c.ApplyYAML(nil, rb, "default"); err != nil {
		t.Fatal(err)
	}
	n, ok := c.GetByName(RoleBinding, "development", "read-secrets")
	if !ok {
		t.Fatal("rolebinding not stored in its namespace")
	}
	subj, _ := jsonpath.Eval(n, "{.subjects[0].name}")
	if subj != "dave" {
		t.Errorf("subject = %q", subj)
	}
	// Applying into a namespace that does not exist fails.
	c2 := NewCluster()
	if _, err := c2.ApplyYAML(nil, rb, "default"); err == nil {
		t.Error("apply into missing namespace should fail")
	}
}

func TestDeleteCascades(t *testing.T) {
	c := NewCluster()
	if _, err := c.ApplyYAML(nil, nginxDeployment, "default"); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(Deployment, "default", "nginx-deployment"); err != nil {
		t.Fatal(err)
	}
	if pods := c.List(Pod, "default", nil); len(pods) != 0 {
		t.Errorf("pods after delete = %d, want 0", len(pods))
	}
}

func TestReapplyReplacesPods(t *testing.T) {
	c := NewCluster()
	if _, err := c.ApplyYAML(nil, nginxDeployment, "default"); err != nil {
		t.Fatal(err)
	}
	scaled := strings.Replace(nginxDeployment, "replicas: 3", "replicas: 2", 1)
	res, err := c.ApplyYAML(nil, scaled, "default")
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Created {
		t.Error("re-apply should report configured, not created")
	}
	if pods := c.List(Pod, "default", mustSelector("app=nginx")); len(pods) != 2 {
		t.Errorf("pods after scale down = %d, want 2", len(pods))
	}
}

func TestJobCompletes(t *testing.T) {
	c := NewCluster()
	job := `apiVersion: batch/v1
kind: Job
metadata:
  name: pi
spec:
  template:
    spec:
      containers:
      - name: pi
        image: perl:5.34.0
      restartPolicy: Never
`
	if _, err := c.ApplyYAML(nil, job, "default"); err != nil {
		t.Fatal(err)
	}
	n, _ := c.GetByName(Job, "default", "pi")
	if HasCondition(n, "Complete") {
		t.Error("job complete at t=0")
	}
	if err := c.WaitFor(WaitOptions{Resource: Job, Namespace: "default", Names: []string{"pi"}, Condition: "complete", Timeout: 30 * time.Second}); err != nil {
		t.Fatalf("job never completed: %v", err)
	}
	n, _ = c.GetByName(Job, "default", "pi")
	succeeded, _ := jsonpath.Eval(n, "{.status.succeeded}")
	if succeeded != "1" {
		t.Errorf("succeeded = %q", succeeded)
	}
}

func TestBadImageNeverReady(t *testing.T) {
	c := NewCluster()
	pod := `apiVersion: v1
kind: Pod
metadata:
  name: broken
spec:
  containers:
  - name: app
    image: "not a valid image"
`
	if _, err := c.ApplyYAML(nil, pod, "default"); err != nil {
		t.Fatal(err)
	}
	err := c.WaitFor(WaitOptions{Resource: Pod, Namespace: "default", Names: []string{"broken"}, Condition: "Ready", Timeout: 10 * time.Second})
	if err == nil {
		t.Error("pod with bad image should never become Ready")
	}
	n, _ := c.GetByName(Pod, "default", "broken")
	phase, _ := jsonpath.Eval(n, "{.status.phase}")
	if phase != "Pending" {
		t.Errorf("phase = %q", phase)
	}
}

func TestValidateIngressStrictDecoding(t *testing.T) {
	c := NewCluster()
	legacy := `apiVersion: networking.k8s.io/v1
kind: Ingress
metadata:
  name: test-ingress
spec:
  rules:
  - http:
      paths:
      - path: /
        backend:
          serviceName: test-app
          servicePort: 5000
`
	_, err := c.ApplyYAML(nil, legacy, "default")
	if err == nil || !strings.Contains(err.Error(), "strict decoding error") {
		t.Fatalf("legacy ingress error = %v", err)
	}
	fixed := `apiVersion: networking.k8s.io/v1
kind: Ingress
metadata:
  name: minimal-ingress
  annotations:
    nginx.ingress.kubernetes.io/rewrite-target: /
spec:
  rules:
  - http:
      paths:
      - path: /
        pathType: Prefix
        backend:
          service:
            name: test-app
            port:
              number: 5000
`
	if _, err := c.ApplyYAML(nil, fixed, "default"); err != nil {
		t.Fatalf("fixed ingress rejected: %v", err)
	}
	out, err := c.Describe(Ingress, "default", "minimal-ingress")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "test-app:5000") {
		t.Errorf("describe missing backend:\n%s", out)
	}
}

func TestValidateWorkloadSelectorMismatch(t *testing.T) {
	c := NewCluster()
	bad := strings.Replace(nginxDeployment, "app: nginx\n  template", "app: other\n  template", 1)
	if _, err := c.ApplyYAML(nil, bad, "default"); err == nil {
		t.Error("selector/template mismatch should be rejected")
	}
}

func TestValidateMissingKind(t *testing.T) {
	c := NewCluster()
	if _, err := c.ApplyYAML(nil, "metadata:\n  name: x\n", "default"); err == nil {
		t.Error("manifest without kind should fail")
	}
	if _, err := c.ApplyYAML(nil, "kind: Pod\nmetadata:\n  name: x\n", "default"); err == nil {
		t.Error("manifest without apiVersion should fail")
	}
	if _, err := c.ApplyYAML(nil, "apiVersion: v1\nkind: Pod\nmetadata: {}\n", "default"); err == nil {
		t.Error("manifest without name should fail")
	}
}

func TestValidateWrongAPIVersion(t *testing.T) {
	c := NewCluster()
	old := strings.Replace(nginxDeployment, "apps/v1", "extensions/v1beta1", 1)
	_, err := c.ApplyYAML(nil, old, "default")
	if err == nil || !strings.Contains(err.Error(), "no matches for kind") {
		t.Errorf("err = %v", err)
	}
}

// TestUnknownKindRefused: a manifest of a kind no row of the table names
// is refused with the error a wrong apiVersion gets, and leaves the
// cluster as it found it — no object and no bucket.
func TestUnknownKindRefused(t *testing.T) {
	c := NewCluster()
	_, err := c.ApplyYAML(nil, "apiVersion: example.com/v1\nkind: Widget\nmetadata:\n  name: w\n", "default")
	if want := `error: unable to recognize: no matches for kind "Widget" in version "example.com/v1"`; err == nil || err.Error() != want {
		t.Errorf("apply kind: Widget: %v, want %s", err, want)
	}
	if len(c.objects) != len(Resources) {
		t.Errorf("%d buckets for %d rows", len(c.objects), len(Resources))
	}
	for i, b := range c.objects {
		if b != nil {
			t.Errorf("the %s bucket was created", Resources[i].Kind)
		}
	}
}

// TestManifestKindIsExact: a manifest's kind is its row's Kind, spelled
// exactly. Every other spelling kubectl resolves on a command line is
// refused as the API server refuses it, and applies nothing.
func TestManifestKindIsExact(t *testing.T) {
	for _, kind := range []string{"deploy", "deployment", "deployments", "DEPLOYMENT", "Deployments", `" deploy "`, `" Deployment"`} {
		c := NewCluster()
		_, err := c.ApplyYAML(nil, strings.Replace(nginxDeployment, "kind: Deployment", "kind: "+kind, 1), "default")
		want := `error: unable to recognize: no matches for kind "` + strings.Trim(kind, `"`) + `" in version "apps/v1"`
		if err == nil || err.Error() != want {
			t.Errorf("kind: %s: %v, want %s", kind, err, want)
		}
		if objs := c.ListObjects(Deployment, "*", nil); len(objs) != 0 {
			t.Errorf("kind: %s: applied %d deployments", kind, len(objs))
		}
	}
	if _, err := NewCluster().ApplyYAML(nil, nginxDeployment, "default"); err != nil {
		t.Errorf("kind: Deployment: %v", err)
	}
}

func TestValidateEnvNumberValue(t *testing.T) {
	c := NewCluster()
	pod := `apiVersion: v1
kind: Pod
metadata:
  name: envpod
spec:
  containers:
  - name: app
    image: nginx
    env:
    - name: PORT
      value: 5000
`
	if _, err := c.ApplyYAML(nil, pod, "default"); err == nil {
		t.Error("unquoted numeric env value must fail strict decoding")
	}
	quoted := strings.Replace(pod, "value: 5000", `value: "5000"`, 1)
	if _, err := c.ApplyYAML(nil, quoted, "default"); err != nil {
		t.Errorf("quoted env value rejected: %v", err)
	}
}

func TestKindAliases(t *testing.T) {
	for _, alias := range []string{"pod", "pods", "po", "Pod", "PODS"} {
		if r, _ := Lookup(alias); r != Pod {
			t.Errorf("Lookup(%q) = %v", alias, r)
		}
	}
	for _, alias := range []string{"svc", "service", "services", "Service"} {
		if r, _ := Lookup(alias); r != Service {
			t.Errorf("Lookup(%q) = %v", alias, r)
		}
	}
	for alias, want := range map[string]*Resource{"ingress": Ingress, "ing": Ingress, "deploy": Deployment, "deployments": Deployment} {
		if r, _ := Lookup(alias); r != want {
			t.Errorf("Lookup(%q) = %v, want %s", alias, r, want.Kind)
		}
	}
}

// TestKindShortNames: every spelling of every row of the table — its
// Kind, singular, plural and short names, each also upper-case and
// padded, and each short name in the plural — resolves to that row. The
// spellings whose plural the suffix-stripping before the table mangled
// (roles -> rol, limitranges -> limitrang, networkpolicies ->
// networkpolici, persistentvolumes -> persistentvolum, nodes -> nod,
// storageclasses -> storageclas), the four short names that end in "s"
// themselves (ns, ds, sts, rs) and every kind kubectl and the corpus
// spell are also checked against Kubernetes' own names and scope, which
// are written out here rather than read from the table.
func TestKindShortNames(t *testing.T) {
	for _, r := range Resources {
		spellings := []string{r.Kind, r.Singular, r.Plural}
		for _, s := range r.ShortNames {
			spellings = append(spellings, s, s+"s")
		}
		for _, s := range spellings {
			for _, v := range []string{s, strings.ToUpper(s), " " + s + " ", "\t" + s + "\n"} {
				if got, ok := Lookup(v); !ok || got != r {
					t.Errorf("Lookup(%q) = %v, %v; want the %s row", v, got, ok, r.Kind)
				}
			}
		}
	}

	clusterScoped := map[string]bool{"Namespace": true, "Node": true, "PersistentVolume": true, "StorageClass": true, "ClusterRole": true, "ClusterRoleBinding": true}
	for spelling, kind := range map[string]string{
		"pods": "Pod", "svc": "Service", "ns": "Namespace", "ds": "DaemonSet", "sts": "StatefulSet", "rs": "ReplicaSet",
		"roles": "Role", "clusterroles": "ClusterRole", "limitranges": "LimitRange", "networkpolicies": "NetworkPolicy",
		"persistentvolumes": "PersistentVolume", "storageclasses": "StorageClass", "storageclass": "StorageClass",
		"nodes": "Node", "node": "Node",
	} {
		r, ok := Lookup(spelling)
		if !ok || r.Kind != kind {
			t.Errorf("Lookup(%q) = %v, %v; want %s", spelling, r, ok, kind)
		} else if r.Namespaced == clusterScoped[kind] {
			t.Errorf("%s: namespaced = %v", kind, r.Namespaced)
		}
	}
	for _, kind := range []string{
		"Pod", "Deployment", "Service", "Ingress", "DaemonSet", "StatefulSet", "ReplicaSet", "Job", "CronJob",
		"ConfigMap", "Secret", "Namespace", "ServiceAccount", "Role", "RoleBinding", "ClusterRole",
		"ClusterRoleBinding", "PersistentVolume", "PersistentVolumeClaim", "HorizontalPodAutoscaler",
		"NetworkPolicy", "LimitRange", "ResourceQuota", "DestinationRule", "VirtualService", "Gateway",
	} {
		for _, spelling := range []string{kind, strings.ToLower(kind)} {
			if r, ok := Lookup(spelling); !ok || r.Kind != kind || r.Namespaced == clusterScoped[kind] {
				t.Errorf("Lookup(%q) = %+v, %v; want the %s row, namespaced %v", spelling, r, ok, kind, !clusterScoped[kind])
			}
		}
	}
	for _, unknown := range []string{"", "foo", "all", "Widget", "widgets", "rol", "po s", "p"} {
		if r, ok := Lookup(unknown); ok {
			t.Errorf("Lookup(%q) = the %s row, want none", unknown, r.Kind)
		}
	}
}

func TestDescribeService(t *testing.T) {
	c := NewCluster()
	if _, err := c.ApplyYAML(nil, nginxDeployment, "default"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ApplyYAML(nil, nginxLBService, "default"); err != nil {
		t.Fatal(err)
	}
	c.AdvanceTime(10 * time.Second)
	out, err := c.Describe(Service, "default", "nginx-service")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Type:             LoadBalancer", "Selector:         app=nginx", "LoadBalancer Ingress"} {
		if !strings.Contains(out, want) {
			t.Errorf("describe missing %q:\n%s", want, out)
		}
	}
}

func TestStatefulSetPodNames(t *testing.T) {
	c := NewCluster()
	sts := `apiVersion: apps/v1
kind: StatefulSet
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
      - name: nginx
        image: nginx
`
	if _, err := c.ApplyYAML(nil, sts, "default"); err != nil {
		t.Fatal(err)
	}
	pods := c.List(Pod, "default", mustSelector("app=web"))
	if len(pods) != 2 {
		t.Fatalf("pods = %d", len(pods))
	}
	name0, _ := jsonpath.Eval(pods[0], "{.metadata.name}")
	if name0 != "web-0" {
		t.Errorf("statefulset pod name = %q, want web-0", name0)
	}
}

// TestApplyParseErrorText: text that does not parse fails apply and
// delete with kubectl's "error parsing YAML: " before the parser's own
// error. The parser formatted that text when it failed, and the
// document cache keeps the error, so a failed apply of text it has
// seen allocates nothing.
func TestApplyParseErrorText(t *testing.T) {
	const src = "apiVersion: v1\nkind: Pod\nmetadata: {name: [web\n"
	c := NewCluster()
	_, applyErr := c.ApplyYAML(nil, src, "default")
	_, deleteErr := c.DeleteYAML(src, "default")
	_, parseErr := yamlx.ParseString(src)
	want := "error parsing YAML: yaml: line 3: unterminated flow sequence"
	for _, err := range []error{applyErr, deleteErr} {
		if err == nil || err.Error() != want {
			t.Errorf("err = %v, want %s", err, want)
		}
	}
	if parseErr == nil || "error parsing YAML: "+parseErr.Error() != want {
		t.Errorf("parse error = %v, want the apply text without its prefix", parseErr)
	}
	if raceflag.Enabled {
		return
	}
	if allocs := testing.AllocsPerRun(100, func() { c.ApplyYAML(nil, src, "default") }); allocs != 0 {
		t.Errorf("%.1f allocations per failed apply of cached text, want 0", allocs)
	}
}

// TestSharedStatusScalars: a status document's timestamps, namespace
// and addresses are shared scalars wherever that is possible, and read
// as the text they replaced.
func TestSharedStatusScalars(t *testing.T) {
	c := NewCluster()
	if _, err := c.ApplyYAML(nil, nginxDeployment, "default"); err != nil {
		t.Fatal(err)
	}
	pods := c.List(Pod, "default", nil)
	a, b := pods[0].Path("metadata", "creationTimestamp"), pods[1].Path("metadata", "creationTimestamp")
	if a != b || a.ScalarString() != "2024-01-01T00:00:00Z" {
		t.Errorf("creationTimestamps %p %q and %p %q, want one shared 2024-01-01T00:00:00Z", a, a.ScalarString(), b, b.ScalarString())
	}
	if ns := pods[0].Path("metadata", "namespace"); ns != strDefault {
		t.Errorf("namespace %q is not the shared scalar", ns.ScalarString())
	}
	c.Reset()
	c.AdvanceTime(90 * time.Second)
	if _, err := c.ApplyYAML(nil, nginxDeployment, "default"); err != nil {
		t.Fatal(err)
	}
	if got := c.List(Pod, "default", nil)[0].Path("metadata", "creationTimestamp").ScalarString(); got != "2024-01-01T00:01:30Z" {
		t.Errorf("creationTimestamp after a reset and 90 s: %q", got)
	}
	for i := 0; i < 2*maxStamps; i++ {
		c.stamp(epoch.Add(time.Duration(i) * time.Hour))
	}
	if len(c.stamps) > maxStamps {
		t.Errorf("%d stamps kept, cap %d", len(c.stamps), maxStamps)
	}
	for _, tab := range []*addrTable{podAddrs, serviceAddrs} {
		for i := 0; i < 300; i++ {
			want := tab.prefix + strconv.Itoa(i)
			if tab.node(i).ScalarString() != want || tab.nodeOf(want).ScalarString() != want {
				t.Errorf("address %d of %s: %q, %q", i, tab.prefix, tab.node(i).ScalarString(), tab.nodeOf(want).ScalarString())
			}
			if i < 256 && (tab.node(i) != tab.nodes[i] || tab.nodeOf(want) != tab.nodes[i]) {
				t.Errorf("address %d of %s is not the shared scalar", i, tab.prefix)
			}
		}
	}
}

// TestPodNames: a spawned pod's name is its owner's, the owner's hash
// (not for a StatefulSet) and its ordinal, joined by '-'.
func TestPodNames(t *testing.T) {
	long := strings.Repeat("n", 200)
	for _, owner := range []*Object{{Name: "web", Resource: Deployment}, {Name: "db", Resource: StatefulSet}, {Name: long, Resource: Job}} {
		for _, i := range []int{0, 7, 12} {
			want := owner.Name + "-" + strconv.Itoa(i)
			var hash [6]byte
			if owner.Resource != StatefulSet {
				hash = shortHash(owner.Name)
				want = owner.Name + "-" + string(hash[:]) + "-" + strconv.Itoa(i)
			}
			if got := podName(owner, hash, i); got != want {
				t.Errorf("pod %d of %s: %q, want %q", i, owner.Name, got, want)
			}
		}
	}
}
