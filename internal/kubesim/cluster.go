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
// The kinds it serves are the rows of one table, Resources: a manifest's
// kind and a command's resource type are resolved to a row once, and a
// spelling no row knows is an error, as it is to an API server.
//
// State is a function of virtual time: every derived object records the
// virtual timestamps at which it transitions (scheduled, ready,
// complete), so there is no background reconcile loop and the cluster
// is fully deterministic.
package kubesim

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

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
	Resource  *Resource
	Name      string
	Namespace string
	CreatedAt time.Time
	ReadyAt   time.Time // pods: when Ready flips true
	DoneAt    time.Time // jobs: completion time
	OwnerKind *Resource
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
	objects    []map[string]*Object // by Resource.bucket: ns/name -> obj
	namespaces map[string]bool
	nextPodIP  int
	nextPort   int

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
		objects:    make([]map[string]*Object, len(Resources)),
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

func nsName(ns, name string) string { return ns + "/" + name }

// bucket holds a row's objects. It is nil until the first one is stored
// (put), and reading a nil map is reading an empty one.
func (c *Cluster) bucket(r *Resource) map[string]*Object { return c.objects[r.bucket] }

func (c *Cluster) put(obj *Object) {
	b := c.objects[obj.Resource.bucket]
	if b == nil {
		b = make(map[string]*Object)
		c.objects[obj.Resource.bucket] = b
	}
	b[nsName(obj.Namespace, obj.Name)] = obj
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

// DeleteNamespace removes a namespace, the Namespace object applied for
// it if there is one, and everything inside it.
func (c *Cluster) DeleteNamespace(name string) error {
	if !c.namespaces[name] {
		return fmt.Errorf("namespaces %q not found", name)
	}
	c.touch()
	delete(c.namespaces, name)
	delete(c.bucket(Namespace), nsName("", name))
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
	Resource  *Resource
	Kind      string // as the manifest spells it
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
	r, err := ValidateManifest(doc)
	if err != nil {
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
	if !r.Namespaced {
		ns = ""
	} else if !c.namespaces[ns] {
		return ApplyResult{}, fmt.Errorf("namespaces %q not found", ns)
	}

	if r == Namespace {
		created := !c.namespaces[name]
		c.namespaces[name] = true
		c.put(&Object{Manifest: doc, Resource: r, Name: name, CreatedAt: c.now})
		return ApplyResult{Resource: r, Kind: kind, Name: name, Created: created}, nil
	}

	_, existed := c.bucket(r)[nsName(ns, name)]
	// Stored manifests are immutable after apply for every kind except
	// Service, whose controller writes allocated values (clusterIP,
	// nodePort) into the stored tree. Everything else stores the parsed
	// document as-is — which may come from the shared yamlx cache — so
	// applying a manifest costs no deep copy.
	manifest := doc
	if r == Service {
		manifest = doc.Clone()
	}
	obj := &Object{
		Manifest:  manifest,
		Resource:  r,
		Name:      name,
		Namespace: ns,
		CreatedAt: c.now,
	}
	c.put(obj)
	c.runControllers(obj)
	return ApplyResult{Resource: r, Kind: kind, Name: name, Namespace: ns, Created: !existed}, nil
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
		r, ok := Lookup(kind)
		if !ok {
			return out, noMatch(kind, doc.Get("apiVersion").ScalarString())
		}
		name := doc.Path("metadata", "name").ScalarString()
		ns := defaultNS
		if v := doc.Path("metadata", "namespace"); v != nil {
			ns = v.ScalarString()
		}
		if err := c.Delete(r, ns, name); err != nil {
			if errors.Is(err, ErrNotFound) {
				err = fmt.Errorf("%s %q not found", strings.ToLower(kind), name)
			}
			return out, err
		}
		out = append(out, fmt.Sprintf("%s %q deleted", strings.ToLower(kind), name))
	}
	return out, nil
}

// ErrNotFound is Delete's error for an object that is not there; the
// caller names it, as the command or manifest spelled its kind.
var ErrNotFound = errors.New("not found")

// Delete removes one resource and any objects it owns. Deleting a
// Namespace deletes everything in it.
func (c *Cluster) Delete(r *Resource, ns, name string) error {
	if r == Namespace {
		return c.DeleteNamespace(name)
	}
	ns = r.namespace(ns)
	bucket := c.bucket(r)
	key := nsName(ns, name)
	if _, ok := bucket[key]; !ok {
		return ErrNotFound
	}
	c.touch()
	delete(bucket, key)
	// Cascade to owned objects (pods of a deployment, etc.).
	for _, b := range c.objects {
		for k, o := range b {
			if o.OwnerKind == r && o.OwnerName == name && o.Namespace == ns {
				delete(b, k)
			}
		}
	}
	return nil
}

// GetObject fetches one stored resource without materializing status.
func (c *Cluster) GetObject(r *Resource, ns, name string) (*Object, bool) {
	obj, ok := c.bucket(r)[nsName(r.namespace(ns), name)]
	return obj, ok
}

// GetByName fetches one resource with live status populated.
func (c *Cluster) GetByName(r *Resource, ns, name string) (*yamlx.Node, bool) {
	obj, ok := c.GetObject(r, ns, name)
	if !ok {
		return nil, false
	}
	return c.withStatus(obj), true
}

// ListObjects returns the stored objects of a kind in a namespace (all
// namespaces when ns is "*") that a label selector matches (the nil
// selector matches all), sorted by name. A wait resolves its targets
// through this, without building kubectl-style documents.
func (c *Cluster) ListObjects(r *Resource, ns string, sel Selector) []*Object {
	if ns == "" {
		ns = "default"
	}
	anyNS := ns == "*" || !r.Namespaced
	var objs []*Object
	for _, obj := range c.bucket(r) {
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
	slices.SortFunc(objs, byName)
}

func byName(a, b *Object) int {
	return cmp.Or(strings.Compare(a.Name, b.Name), strings.Compare(a.Namespace, b.Namespace))
}

// first returns the object of a bucket that ok accepts and that a sorted
// listing would reach first, without sorting.
func first(bucket map[string]*Object, ok func(*Object) bool) *Object {
	var best *Object
	for _, o := range bucket {
		if (best == nil || byName(o, best) < 0) && ok(o) {
			best = o
		}
	}
	return best
}

// List returns resources of a kind with live status populated, in the
// same order and under the same filters as ListObjects.
func (c *Cluster) List(r *Resource, ns string, sel Selector) []*yamlx.Node {
	objs := c.ListObjects(r, ns, sel)
	out := make([]*yamlx.Node, len(objs))
	for i, o := range objs {
		out[i] = c.withStatus(o)
	}
	return out
}
