// Package kubesim implements an in-memory Kubernetes cluster that
// stands in for minikube in the CloudEval-YAML evaluation platform.
//
// The simulator keeps each applied manifest as parsed (the yamlx
// document cache's tree, never written) and each object's lifecycle as
// typed fields, building YAML only where a command reads it. It runs
// the controllers the benchmark's unit tests observe (Deployments,
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

	"cloudeval/internal/stage"
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
// virtual timestamps driving its lifecycle. A pod a workload spawned
// has no manifest: it carries its owner's template labels and spec, and
// its documents are built only when a command reads them (buildStatus).
type Object struct {
	manifest  *yamlx.Node // nil for a spawned pod
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

	// A spawned pod's share of its owner's pod template, never written.
	tmplLabels, tmplSpec *yamlx.Node

	// The kubectl-style document withStatus last built for this object
	// and the cluster generation it was built at. It is built in the
	// cluster's arena, like the Object itself, so both are good until the
	// cluster's next Reset, which reuses their memory.
	statusDoc *yamlx.Node
	statusGen uint64
}

// labels is the object's metadata.labels, nil when it has none.
func (o *Object) labels() *yamlx.Node {
	if o.manifest == nil {
		return o.tmplLabels
	}
	return o.manifest.Path("metadata", "labels")
}

// spec is the object's spec, nil when it has none.
func (o *Object) spec() *yamlx.Node {
	if o.manifest == nil {
		return o.tmplSpec
	}
	return o.manifest.Get("spec")
}

// Cluster is a simulated Kubernetes cluster.
type Cluster struct {
	now        time.Time
	objects    []map[key]*Object // by Resource.bucket
	namespaces map[string]bool
	nextPodIP  int
	nextPort   int

	// gen counts the changes made to the cluster; see touch.
	gen uint64

	// stamps holds the timestamp scalar of each virtual second a status
	// document has shown (creationTimestamp, completionTime). Reset puts
	// the clock back to epoch, so a pooled cluster meets the same few
	// seconds execution after execution; it keeps them across resets,
	// up to maxStamps, on the heap.
	stamps map[int64]*yamlx.Node

	// What one execution builds: the Objects (objs) and the nodes of
	// status documents and of a Service's allocations (arena). Reset
	// rewinds both, so the next execution on a pooled cluster reuses the
	// memory, and keeps at most one chunk of each (yamlx.ChunkCap).
	arena yamlx.Arena
	objs  yamlx.Chunks[Object]

	// targets is the storage WaitFor resolves its targets into. Reset
	// drops it once it outgrows one arena chunk's worth (yamlx.ChunkCap).
	targets []*Object
}

// maxStamps bounds Cluster.stamps: a script that sleeps through more
// distinct seconds than this has the rest rendered afresh.
const maxStamps = 64

// stamp is t as a status document's timestamp scalar. Like the shared
// status scalars, it is only ever read.
func (c *Cluster) stamp(t time.Time) *yamlx.Node {
	sec := t.Unix()
	if n := c.stamps[sec]; n != nil {
		return n
	}
	s := t.Format("2006-01-02T15:04:05Z")
	if len(c.stamps) >= maxStamps {
		return c.arena.String(s)
	}
	if c.stamps == nil {
		c.stamps = make(map[int64]*yamlx.Node)
	}
	n := yamlx.String(s)
	c.stamps[sec] = n
	return n
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
		objects:    make([]map[key]*Object, len(Resources)),
		namespaces: map[string]bool{"default": true, "kube-system": true},
		nextPodIP:  2,
		nextPort:   30000,
	}
}

// Reset returns the cluster to its pristine NewCluster state while
// retaining allocated bucket capacity and the current chunks of its
// arena, so environment pools can stamp out executions without
// rebuilding the world. Every Object and status document the cluster
// handed out before is reused from here on, so none may be kept past
// it. Equivalence with a fresh cluster is what TestPooledEnvNoLeak pins
// down, and TestResetKeepsOneChunk the bound on what it keeps.
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
	c.arena.Rewind()
	c.objs.Rewind()
	if cap(c.targets) > yamlx.ChunkCap {
		c.targets = nil
	}
}

// newObject stores o in the cluster's chunks of Objects, where it is
// good until the next Reset.
func (c *Cluster) newObject(o Object) *Object {
	p := &c.objs.Take(1)[0]
	*p = o
	return p
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

// key names an object within its row's bucket; the namespace is "" for
// a cluster-scoped row.
type key struct{ ns, name string }

// bucket holds a row's objects. It is nil until the first one is stored
// (put), and reading a nil map is reading an empty one.
func (c *Cluster) bucket(r *Resource) map[key]*Object { return c.objects[r.bucket] }

func (c *Cluster) put(obj *Object) {
	b := c.objects[obj.Resource.bucket]
	if b == nil {
		b = make(map[key]*Object)
		c.objects[obj.Resource.bucket] = b
	}
	b[key{obj.Namespace, obj.Name}] = obj
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

// CreateRole applies the Role or ClusterRole r that `kubectl create
// role` writes: name, granting verbs on resources, each a
// comma-separated list whose empty items are dropped. The manifest is
// built in the cluster's arena, so like every Object it is good until
// the next Reset.
func (c *Cluster) CreateRole(r *Resource, ns, name, verbs, resources string) (ApplyResult, error) {
	a := &c.arena
	rule := a.Map(
		yamlx.Entry{Key: "apiGroups", Value: a.Seq(a.String(""))},
		yamlx.Entry{Key: "verbs", Value: c.listOf(verbs)},
		yamlx.Entry{Key: "resources", Value: c.listOf(resources)},
	)
	doc := a.Map(
		yamlx.Entry{Key: "apiVersion", Value: a.String(r.Versions[0])},
		yamlx.Entry{Key: "kind", Value: a.String(r.Kind)},
		yamlx.Entry{Key: "metadata", Value: a.Map(yamlx.Entry{Key: "name", Value: a.String(name)})},
		yamlx.Entry{Key: "rules", Value: a.Seq(rule)},
	)
	return c.Apply(doc, ns)
}

// listOf is a comma-separated list as a sequence of its non-empty
// items, in the arena.
func (c *Cluster) listOf(csv string) *yamlx.Node {
	var buf [8]*yamlx.Node
	items := buf[:0]
	for csv != "" {
		var v string
		v, csv, _ = strings.Cut(csv, ",")
		if v != "" {
			items = append(items, c.arena.String(v))
		}
	}
	return c.arena.Seq(items...)
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
	delete(c.bucket(Namespace), key{"", name})
	for _, bucket := range c.objects {
		for k, obj := range bucket {
			if obj.Namespace == name {
				delete(bucket, k)
			}
		}
	}
	return nil
}

// ApplyResult describes one applied manifest. kubectl reports it as
// Resource.Singular + "/" + Name and "created" or "configured": a
// manifest's kind is its row's Kind exactly, so that is the kind as the
// manifest spells it, lower-cased.
type ApplyResult struct {
	Resource  *Resource
	Name      string
	Namespace string
	Created   bool // false: configured (updated)
}

// yamlError is what ApplyYAML and DeleteYAML return for text that does
// not parse. Most model answers end here, so it costs nothing: it is one
// pointer wide, and its text is the cached ParseError's, formatted when
// the parser failed.
type yamlError struct{ err *yamlx.ParseError }

func (e yamlError) Error() string { return e.err.ApplyText() }

// ApplyYAML parses a (possibly multi-document) manifest and applies
// every document, mimicking "kubectl apply -f". It appends a result per
// applied document to dst and returns the extended slice, which holds
// the documents applied before an error too, so a caller that keeps
// dst's storage applies without allocating a slice. The defaultNS
// applies to namespaced resources without an explicit
// metadata.namespace. Parsing goes through the yamlx document cache —
// the same answer text is applied once per model sample but parsed once
// per process — and Apply never writes a document it is given, so the
// cached trees stay pristine.
func (c *Cluster) ApplyYAML(dst []ApplyResult, src string, defaultNS string) ([]ApplyResult, error) {
	stage.Set(stage.Parse)
	docs, err := yamlx.ParseAllCached(src)
	stage.Set(stage.Apply)
	if err != nil {
		return dst, yamlError{err.(*yamlx.ParseError)}
	}
	n := len(dst)
	for _, doc := range docs {
		if doc == nil || doc.Kind == yamlx.NullKind {
			continue
		}
		res, err := c.Apply(doc, defaultNS)
		if err != nil {
			return dst, err
		}
		dst = append(dst, res)
	}
	if len(dst) == n {
		return dst, fmt.Errorf("error: no objects passed to apply")
	}
	return dst, nil
}

// Apply validates and stores a single manifest, then runs the
// controllers that materialize derived objects (pods, endpoints). It
// stores doc itself and never writes it: a Service's allocations go into
// copies of the nodes they change (initService).
func (c *Cluster) Apply(doc *yamlx.Node, defaultNS string) (ApplyResult, error) {
	r, err := ValidateManifest(doc)
	if err != nil {
		return ApplyResult{}, err
	}
	c.touch()
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
		c.put(c.newObject(Object{manifest: doc, Resource: r, Name: name, CreatedAt: c.now}))
		return ApplyResult{Resource: r, Name: name, Created: created}, nil
	}

	_, existed := c.bucket(r)[key{ns, name}]
	obj := c.newObject(Object{
		manifest:  doc,
		Resource:  r,
		Name:      name,
		Namespace: ns,
		CreatedAt: c.now,
	})
	c.put(obj)
	c.runControllers(obj)
	return ApplyResult{Resource: r, Name: name, Namespace: ns, Created: !existed}, nil
}

// DeleteYAML deletes every resource named in a manifest, mimicking
// "kubectl delete -f".
func (c *Cluster) DeleteYAML(src string, defaultNS string) ([]string, error) {
	docs, err := yamlx.ParseAllCached(src)
	if err != nil {
		return nil, yamlError{err.(*yamlx.ParseError)}
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
				err = fmt.Errorf("%s %q not found", r.GroupResource, name)
			}
			return out, err
		}
		out = append(out, fmt.Sprintf("%s %q deleted", r.GroupKind, name))
	}
	return out, nil
}

// ErrNotFound is Delete's error for an object that is not there; the
// caller names it, by its row's GroupResource.
var ErrNotFound = errors.New("not found")

// Delete removes one resource and any objects it owns. Deleting a
// Namespace deletes everything in it.
func (c *Cluster) Delete(r *Resource, ns, name string) error {
	if r == Namespace {
		return c.DeleteNamespace(name)
	}
	ns = r.namespace(ns)
	bucket := c.bucket(r)
	k := key{ns, name}
	if _, ok := bucket[k]; !ok {
		return ErrNotFound
	}
	c.touch()
	delete(bucket, k)
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
	obj, ok := c.bucket(r)[key{r.namespace(ns), name}]
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

// ListObjects appends to dst the stored objects of a kind in a
// namespace (all namespaces when ns is "*") that a label selector
// matches (the nil selector matches all), sorted by name, and returns
// the extended slice: a caller that keeps dst's storage lists without
// allocating. A wait resolves its targets through this, without
// building kubectl-style documents.
func (c *Cluster) ListObjects(dst []*Object, r *Resource, ns string, sel Selector) []*Object {
	if ns == "" {
		ns = "default"
	}
	anyNS := ns == "*" || !r.Namespaced
	n := len(dst)
	for _, obj := range c.bucket(r) {
		if (anyNS || obj.Namespace == ns) && sel.matches(obj.labels()) {
			dst = append(dst, obj)
		}
	}
	sortByName(dst[n:])
	return dst
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
func first(bucket map[key]*Object, ok func(*Object) bool) *Object {
	var best *Object
	for _, o := range bucket {
		if (best == nil || byName(o, best) < 0) && ok(o) {
			best = o
		}
	}
	return best
}

// List appends to dst the resources of a kind with live status
// populated, in the same order and under the same filters as
// ListObjects, and returns the extended slice.
func (c *Cluster) List(dst []*yamlx.Node, r *Resource, ns string, sel Selector) []*yamlx.Node {
	var buf [16]*Object // List keeps none of them, so they may sit on the stack
	for _, o := range c.ListObjects(buf[:0], r, ns, sel) {
		dst = append(dst, c.withStatus(o))
	}
	return dst
}
