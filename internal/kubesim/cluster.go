// Package kubesim implements an in-memory Kubernetes cluster that
// stands in for minikube in the CloudEval-YAML evaluation platform.
//
// The simulator stores applied manifests as YAML trees, runs the
// controllers the benchmark's unit tests observe (Deployments,
// ReplicaSets, DaemonSets, Jobs and StatefulSets create Pods; Services
// select endpoints; LoadBalancers acquire ingress IPs), and advances a
// virtual clock so that "kubectl wait" and "sleep" in test scripts
// complete in microseconds of real time.
//
// State is a function of virtual time: every derived object records the
// virtual timestamps at which it transitions (scheduled, ready,
// complete), so there is no background reconcile loop and the cluster
// is fully deterministic.
package kubesim

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"

	"cloudeval/internal/memo"
	"cloudeval/internal/yamlx"
)

// Default latencies of the virtual control plane. They model the real
// timings the paper's unit tests wait on (pods take seconds to pull and
// start; LoadBalancers take longer) while costing nothing in real time.
const (
	PodReadyDelay   = 3 * time.Second
	JobCompleteTime = 5 * time.Second
	LBProvisionTime = 4 * time.Second
	NodeIP          = "192.168.49.2"
)

// Object is one stored resource: the manifest as applied plus the
// virtual timestamps driving its lifecycle.
type Object struct {
	Manifest  *yamlx.Node
	Kind      string
	Name      string
	Namespace string
	CreatedAt time.Time
	ReadyAt   time.Time // pods: when Ready flips true
	DoneAt    time.Time // jobs: completion time
	OwnerKind string
	OwnerName string
	Failed    bool   // image pull errors and the like
	FailMsg   string // reason for Failed
	PodIP     string

	createdStampNode *yamlx.Node // lazily rendered CreatedAt, see createdStamp

	// The kubectl-style document withStatus last built for this object
	// and the cluster generation it was built at. It lives and dies with
	// the Object: Reset drops the objects, and their documents with them.
	statusDoc *yamlx.Node
	statusGen uint64
}

// createdStamp is CreatedAt as the metadata.creationTimestamp scalar of
// the object's status documents, rendered once: the timestamp never
// changes after creation.
func (o *Object) createdStamp() *yamlx.Node {
	if o.createdStampNode == nil {
		o.createdStampNode = yamlx.String(o.CreatedAt.Format("2006-01-02T15:04:05Z"))
	}
	return o.createdStampNode
}

// Cluster is a simulated Kubernetes cluster.
type Cluster struct {
	now        time.Time
	objects    map[string]map[string]*Object // kindKey -> ns/name -> obj
	namespaces map[string]bool
	nextPodIP  int
	nextPort   int
	events     []string

	// gen counts the changes made to the cluster; see touch.
	gen uint64
}

// touch marks the cluster as changed. State derived from the cluster —
// today the status documents withStatus keeps on each Object — is
// stamped with the generation it was computed at and is good until the
// next touch. Every mutator calls it, whatever it changed: one rule that
// cannot be got subtly wrong instead of a dependency list per derived
// value (a workload's status reads its pods, a pod's reads the clock).
func (c *Cluster) touch() { c.gen++ }

// epoch is the fixed virtual time every fresh (or reset) cluster
// starts at, so evaluations are deterministic.
var epoch = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)

// NewCluster returns an empty cluster with the "default", "kube-system"
// namespaces and a virtual clock starting at a fixed epoch.
func NewCluster() *Cluster {
	return &Cluster{
		now:        epoch,
		objects:    make(map[string]map[string]*Object),
		namespaces: map[string]bool{"default": true, "kube-system": true},
		nextPodIP:  2,
		nextPort:   30000,
	}
}

// Reset returns the cluster to its pristine NewCluster state while
// retaining allocated bucket capacity, so environment pools can stamp
// out executions without rebuilding the world. Equivalence with a
// fresh cluster is what TestPooledEnvNoLeak pins down.
func (c *Cluster) Reset() {
	c.touch()
	c.now = epoch
	for _, b := range c.objects {
		clear(b)
	}
	clear(c.namespaces)
	c.namespaces["default"] = true
	c.namespaces["kube-system"] = true
	c.nextPodIP = 2
	c.nextPort = 30000
	c.events = c.events[:0]
}

// Now returns the current virtual time.
func (c *Cluster) Now() time.Time { return c.now }

// AdvanceTime moves the virtual clock forward.
func (c *Cluster) AdvanceTime(d time.Duration) {
	if d > 0 {
		c.touch()
		c.now = c.now.Add(d)
	}
}

// Event records a control-plane event visible in describe output.
func (c *Cluster) Event(format string, args ...any) {
	c.events = append(c.events, fmt.Sprintf(format, args...))
}

// CanonicalKind returns the canonical lowercase singular for any
// accepted kind spelling ("pods", "po", "Pod" -> "pod").
func CanonicalKind(kind string) string { return kindKey(kind) }

// kindKey canonicalizes resource kind spellings ("pod", "pods", "po",
// "Pod" all name the same store). It runs on every store access, some
// twenty times per unit test, nearly always on one of the spellings
// manifests and scripts actually use — the canonical name or the
// manifest's CamelCase — so those are answered by a switch. Anything
// else is canonicalized by kindKeySlow and memoized process-wide; kind:
// values parsed out of model-generated answers can be arbitrary, hence
// the capped cache. TestKindKeyFastMatchesSlow holds the switch to
// kindKeySlow.
func kindKey(kind string) string {
	switch kind {
	case "pod", "Pod", "pods":
		return "pod"
	case "deployment", "Deployment":
		return "deployment"
	case "service", "Service", "svc":
		return "service"
	case "ingress", "Ingress":
		return "ingress"
	case "daemonset", "DaemonSet":
		return "daemonset"
	case "statefulset", "StatefulSet":
		return "statefulset"
	case "replicaset", "ReplicaSet":
		return "replicaset"
	case "job", "Job":
		return "job"
	case "cronjob", "CronJob":
		return "cronjob"
	case "configmap", "ConfigMap":
		return "configmap"
	case "secret", "Secret":
		return "secret"
	case "namespace", "Namespace":
		return "namespace"
	case "serviceaccount", "ServiceAccount":
		return "serviceaccount"
	case "role", "Role":
		return "role"
	case "rolebinding", "RoleBinding":
		return "rolebinding"
	case "clusterrole", "ClusterRole":
		return "clusterrole"
	case "clusterrolebinding", "ClusterRoleBinding":
		return "clusterrolebinding"
	case "persistentvolume", "PersistentVolume":
		return "persistentvolume"
	case "persistentvolumeclaim", "PersistentVolumeClaim":
		return "persistentvolumeclaim"
	case "horizontalpodautoscaler", "HorizontalPodAutoscaler":
		return "horizontalpodautoscaler"
	case "networkpolicy", "NetworkPolicy":
		return "networkpolicy"
	case "limitrange", "LimitRange":
		return "limitrange"
	case "resourcequota", "ResourceQuota":
		return "resourcequota"
	case "destinationrule", "DestinationRule":
		return "destinationrule"
	case "virtualservice", "VirtualService":
		return "virtualservice"
	case "gateway", "Gateway":
		return "gateway"
	}
	return kindKeyCache.Do(kind, func() string { return kindKeySlow(kind) })
}

var kindKeyCache = memo.New[string, string](1 << 12)

func kindKeySlow(kind string) string {
	k := strings.ToLower(strings.TrimSpace(kind))
	// Short names are resolved before the plural is stripped: several
	// end in "s" themselves (ns, ds, sts, rs).
	if long, ok := kindShortNames[k]; ok {
		return long
	}
	k = strings.TrimSuffix(k, "es")
	if strings.HasSuffix(k, "s") && k != "ingress" && k != "statefulset" && k != "daemonset" && k != "limitrange" {
		k = strings.TrimSuffix(k, "s")
	}
	// What is left is a singular, a short name that was given in the
	// plural ("pvcs"), or a singular whose "es" went with the plural.
	if long, ok := kindShortNames[k]; ok {
		return long
	}
	switch k {
	case "servic":
		return "service"
	case "namespac":
		return "namespace"
	case "ingres":
		return "ingress"
	case "networkpolic":
		return "networkpolicy"
	case "destinationrul":
		return "destinationrule"
	case "virtualservic":
		return "virtualservice"
	}
	return k
}

// kindShortNames are kubectl's abbreviations.
var kindShortNames = map[string]string{
	"po":     "pod",
	"svc":    "service",
	"deploy": "deployment",
	"ds":     "daemonset",
	"sts":    "statefulset",
	"ns":     "namespace",
	"cm":     "configmap",
	"ing":    "ingress",
	"sa":     "serviceaccount",
	"pvc":    "persistentvolumeclaim",
	"pv":     "persistentvolume",
	"hpa":    "horizontalpodautoscaler",
	"rs":     "replicaset",
	"netpol": "networkpolicy",
}

func nsName(ns, name string) string { return ns + "/" + name }

func (c *Cluster) bucket(kind string) map[string]*Object {
	k := kindKey(kind)
	b, ok := c.objects[k]
	if !ok {
		b = make(map[string]*Object)
		c.objects[k] = b
	}
	return b
}

// namespaced reports whether a kind lives inside namespaces.
func namespaced(kind string) bool {
	switch kindKey(kind) {
	case "namespace", "clusterrole", "clusterrolebinding", "persistentvolume", "storageclass", "node":
		return false
	}
	return true
}

// CreateNamespace creates a namespace; creating an existing one errors
// like kubectl does.
func (c *Cluster) CreateNamespace(name string) error {
	if c.namespaces[name] {
		return fmt.Errorf("namespaces %q already exists", name)
	}
	c.touch()
	c.namespaces[name] = true
	return nil
}

// HasNamespace reports whether the namespace exists.
func (c *Cluster) HasNamespace(name string) bool { return c.namespaces[name] }

// DeleteNamespace removes a namespace and everything inside it.
func (c *Cluster) DeleteNamespace(name string) error {
	if !c.namespaces[name] {
		return fmt.Errorf("namespaces %q not found", name)
	}
	c.touch()
	delete(c.namespaces, name)
	for _, bucket := range c.objects {
		for key, obj := range bucket {
			if obj.Namespace == name {
				delete(bucket, key)
			}
		}
	}
	return nil
}

// ApplyResult describes one applied manifest.
type ApplyResult struct {
	Kind      string
	Name      string
	Namespace string
	Created   bool // false: configured (updated)
}

func (r ApplyResult) String() string {
	verb := "configured"
	if r.Created {
		verb = "created"
	}
	return strings.ToLower(r.Kind) + "/" + r.Name + " " + verb
}

// yamlError is what ApplyYAML and DeleteYAML return for text that does
// not parse. Most model answers end here, so it is not built with fmt.
type yamlError struct{ err error }

func (e yamlError) Error() string { return "error parsing YAML: " + e.err.Error() }
func (e yamlError) Unwrap() error { return e.err }

// ApplyYAML parses a (possibly multi-document) manifest and applies
// every document, mimicking "kubectl apply -f". The defaultNS applies
// to namespaced resources without an explicit metadata.namespace.
// Parsing goes through the yamlx document cache — the same answer text
// is applied once per model sample but parsed once per process — and
// Apply deep-copies each document before storing it, so the cached
// trees stay pristine.
func (c *Cluster) ApplyYAML(src string, defaultNS string) ([]ApplyResult, error) {
	docs, err := yamlx.ParseAllCached(src)
	if err != nil {
		return nil, yamlError{err}
	}
	var results []ApplyResult
	for _, doc := range docs {
		if doc == nil || doc.Kind == yamlx.NullKind {
			continue
		}
		res, err := c.Apply(doc, defaultNS)
		if err != nil {
			return results, err
		}
		results = append(results, res)
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("error: no objects passed to apply")
	}
	return results, nil
}

// Apply validates and stores a single manifest, then runs the
// controllers that materialize derived objects (pods, endpoints).
func (c *Cluster) Apply(doc *yamlx.Node, defaultNS string) (ApplyResult, error) {
	if err := ValidateManifest(doc); err != nil {
		return ApplyResult{}, err
	}
	c.touch()
	kind := doc.Get("kind").ScalarString()
	meta := doc.Get("metadata")
	name := meta.Get("name").ScalarString()
	ns := defaultNS
	if ns == "" {
		ns = "default"
	}
	if nsNode := meta.Get("namespace"); nsNode != nil && nsNode.ScalarString() != "" {
		ns = nsNode.ScalarString()
	}
	if !namespaced(kind) {
		ns = ""
	} else if !c.namespaces[ns] {
		return ApplyResult{}, fmt.Errorf("namespaces %q not found", ns)
	}

	if kindKey(kind) == "namespace" {
		created := !c.namespaces[name]
		c.namespaces[name] = true
		c.bucket(kind)[nsName("", name)] = &Object{
			Manifest: doc, Kind: kind, Name: name, CreatedAt: c.now,
		}
		return ApplyResult{Kind: kind, Name: name, Created: created}, nil
	}

	bucket := c.bucket(kind)
	key := nsName(ns, name)
	_, existed := bucket[key]
	// Stored manifests are immutable after apply for every kind except
	// Service, whose controller writes allocated values (clusterIP,
	// nodePort) into the stored tree. Everything else stores the parsed
	// document as-is — which may come from the shared yamlx cache — so
	// applying a manifest costs no deep copy.
	manifest := doc
	if kindKey(kind) == "service" {
		manifest = doc.Clone()
	}
	obj := &Object{
		Manifest:  manifest,
		Kind:      kind,
		Name:      name,
		Namespace: ns,
		CreatedAt: c.now,
	}
	bucket[key] = obj
	c.runControllers(obj)
	return ApplyResult{Kind: kind, Name: name, Namespace: ns, Created: !existed}, nil
}

// DeleteYAML deletes every resource named in a manifest, mimicking
// "kubectl delete -f".
func (c *Cluster) DeleteYAML(src string, defaultNS string) ([]string, error) {
	docs, err := yamlx.ParseAllCached(src)
	if err != nil {
		return nil, yamlError{err}
	}
	var out []string
	for _, doc := range docs {
		if doc == nil || doc.Kind == yamlx.NullKind {
			continue
		}
		kind := doc.Get("kind").ScalarString()
		name := doc.Path("metadata", "name").ScalarString()
		ns := defaultNS
		if v := doc.Path("metadata", "namespace"); v != nil {
			ns = v.ScalarString()
		}
		if err := c.Delete(kind, ns, name); err != nil {
			return out, err
		}
		out = append(out, fmt.Sprintf("%s %q deleted", strings.ToLower(kind), name))
	}
	return out, nil
}

// Delete removes one resource and any objects it owns.
func (c *Cluster) Delete(kind, ns, name string) error {
	if kindKey(kind) == "namespace" {
		return c.DeleteNamespace(name)
	}
	if !namespaced(kind) {
		ns = ""
	} else if ns == "" {
		ns = "default"
	}
	bucket := c.bucket(kind)
	key := nsName(ns, name)
	if _, ok := bucket[key]; !ok {
		return fmt.Errorf("%s %q not found", strings.ToLower(kind), name)
	}
	c.touch()
	delete(bucket, key)
	// Cascade to owned objects (pods of a deployment, etc.).
	for _, b := range c.objects {
		for k, o := range b {
			if o.OwnerKind == kindKey(kind) && o.OwnerName == name && o.Namespace == ns {
				delete(b, k)
			}
		}
	}
	return nil
}

// GetObject fetches one stored resource without materializing status.
func (c *Cluster) GetObject(kind, ns, name string) (*Object, bool) {
	if !namespaced(kind) {
		ns = ""
	} else if ns == "" {
		ns = "default"
	}
	obj, ok := c.bucket(kind)[nsName(ns, name)]
	return obj, ok
}

// GetByName fetches one resource with live status populated.
func (c *Cluster) GetByName(kind, ns, name string) (*yamlx.Node, bool) {
	obj, ok := c.GetObject(kind, ns, name)
	if !ok {
		return nil, false
	}
	return c.withStatus(obj), true
}

// ListObjects returns the stored objects of a kind in a namespace (all
// namespaces when ns is "*") that a label selector matches (the nil
// selector matches all), sorted by name. A wait resolves its targets
// through this, without building kubectl-style documents.
func (c *Cluster) ListObjects(kind, ns string, sel Selector) []*Object {
	if ns == "" {
		ns = "default"
	}
	anyNS := ns == "*" || !namespaced(kind)
	var objs []*Object
	for _, obj := range c.bucket(kind) {
		if (anyNS || obj.Namespace == ns) && sel.matches(obj.Manifest) {
			objs = append(objs, obj)
		}
	}
	sortByName(objs)
	return objs
}

// sortByName puts objects in the order every listing shows them: by
// name, then namespace, so that nothing a script prints depends on map
// iteration order.
func sortByName(objs []*Object) {
	if len(objs) < 2 {
		return
	}
	slices.SortFunc(objs, func(a, b *Object) int {
		return cmp.Or(strings.Compare(a.Name, b.Name), strings.Compare(a.Namespace, b.Namespace))
	})
}

// List returns resources of a kind with live status populated, in the
// same order and under the same filters as ListObjects.
func (c *Cluster) List(kind, ns string, sel Selector) []*yamlx.Node {
	objs := c.ListObjects(kind, ns, sel)
	out := make([]*yamlx.Node, len(objs))
	for i, o := range objs {
		out[i] = c.withStatus(o)
	}
	return out
}

// ListNode wraps List results in a {apiVersion, kind: List, items: []}
// node, the shape kubectl presents to JSONPath queries.
func (c *Cluster) ListNode(kind, ns string, sel Selector) *yamlx.Node {
	return mapOf(
		kv("apiVersion", strV1),
		kv("kind", yamlx.String("List")),
		kv("items", yamlx.Seq(c.List(kind, ns, sel)...)),
	)
}
