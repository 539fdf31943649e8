package kubesim

import (
	"fmt"
	"strconv"
	"strings"

	"cloudeval/internal/yamlx"
)

// runControllers materializes the derived state a freshly applied object
// implies: workloads spawn pods, services acquire cluster IPs and node
// ports. Derived objects carry their owner so deletes cascade and
// re-applies replace.
func (c *Cluster) runControllers(obj *Object) {
	switch obj.Resource {
	case Pod:
		c.schedulePod(obj)
	case Deployment, ReplicaSet, StatefulSet:
		c.reapOwnedPods(obj)
		// ValidateManifest refused every replicas value but an integer
		// or null, so the default is for an absent or null one.
		replicas := int64(1)
		if r, ok := obj.spec().Get("replicas").AsInt(); ok {
			replicas = r
		}
		c.spawnPods(obj, int(replicas))
	case DaemonSet:
		c.reapOwnedPods(obj)
		// A single-node cluster: one pod per daemonset.
		c.spawnPods(obj, 1)
	case Job:
		c.reapOwnedPods(obj)
		obj.DoneAt = c.now.Add(JobCompleteTime)
		c.spawnPods(obj, 1)
	case Service:
		c.initService(obj)
	}
}

// ownedBy reports whether a pod was spawned by the workload.
func (p *Object) ownedBy(owner *Object) bool {
	return p.OwnerKind == owner.Resource && p.OwnerName == owner.Name && p.Namespace == owner.Namespace
}

// reapOwnedPods deletes pods owned by obj, for idempotent re-applies.
func (c *Cluster) reapOwnedPods(owner *Object) {
	bucket := c.bucket(Pod)
	for k, p := range bucket {
		if p.ownedBy(owner) {
			delete(bucket, k)
		}
	}
}

// spawnPods creates n pods from the workload's pod template, in the
// cluster's arena. A pod holds no manifest of its own: every replica
// refers to the template's labels and spec subtrees, which nothing
// writes, and its documents are built only when a command reads them
// (buildStatus).
func (c *Cluster) spawnPods(owner *Object, n int) {
	template := owner.spec().Get("template")
	if template == nil {
		return
	}
	var hash [6]byte
	if owner.Resource != StatefulSet {
		hash = shortHash(owner.Name)
	}
	labels, spec := template.Path("metadata", "labels"), template.Get("spec")
	for i := 0; i < n; i++ {
		p := c.newObject(Object{
			Resource:   Pod,
			Name:       podName(owner, hash, i),
			Namespace:  owner.Namespace,
			CreatedAt:  c.now,
			OwnerKind:  owner.Resource,
			OwnerName:  owner.Name,
			tmplLabels: labels,
			tmplSpec:   spec,
		})
		c.put(p)
		c.schedulePod(p)
	}
}

// podName is the name of a workload's i-th pod, built as one string:
// "<owner>-<hash>-<i>", or "<owner>-<i>" for a StatefulSet, whose hash
// is left zero.
func podName(owner *Object, hash [6]byte, i int) string {
	var buf [128]byte
	b := append(append(buf[:0], owner.Name...), '-')
	if hash[0] != 0 {
		b = append(append(b, hash[:]...), '-')
	}
	return string(strconv.AppendInt(b, int64(i), 10))
}

// addrTable holds the first 256 addresses of a /24 as status-document
// scalars, shared by every cluster in the process under the read-only
// contract of the status scalars.
type addrTable struct {
	prefix string
	nodes  [256]*yamlx.Node
}

func newAddrTable(prefix string) *addrTable {
	t := &addrTable{prefix: prefix}
	for i := range t.nodes {
		t.nodes[i] = yamlx.String(prefix + strconv.Itoa(i))
	}
	return t
}

// The pod and service address ranges. Pods and services draw host
// numbers from one counter (nextPodIP), starting at 2.
var podAddrs, serviceAddrs = newAddrTable("10.244.0."), newAddrTable("10.96.0.")

// node is the address with host number i.
func (t *addrTable) node(i int) *yamlx.Node {
	if i >= 0 && i < len(t.nodes) {
		return t.nodes[i]
	}
	return yamlx.String(t.prefix + strconv.Itoa(i))
}

// nodeOf is address a as a scalar, the shared one if the table has it.
func (t *addrTable) nodeOf(a string) *yamlx.Node {
	if i, err := strconv.Atoi(strings.TrimPrefix(a, t.prefix)); err == nil && i >= 0 && i < len(t.nodes) && t.nodes[i].Str == a {
		return t.nodes[i]
	}
	return yamlx.String(a)
}

// schedulePod assigns IPs and the readiness timestamp, or marks the pod
// failed when its images cannot be pulled.
func (c *Cluster) schedulePod(p *Object) {
	p.PodIP = podAddrs.node(c.nextPodIP).Str
	c.nextPodIP++
	if reason, bad := badImage(p.spec()); bad {
		p.Failed = true
		p.FailMsg = reason
		return
	}
	p.ReadyAt = p.CreatedAt.Add(PodReadyDelay)
}

func badImage(spec *yamlx.Node) (string, bool) {
	containers := spec.Get("containers")
	if containers == nil || containers.Kind != yamlx.SeqKind || len(containers.Items) == 0 {
		return "no containers in pod spec", true
	}
	for _, ct := range containers.Items {
		img := ct.Get("image")
		if img == nil || img.ScalarString() == "" {
			return "container has no image", true
		}
		s := img.ScalarString()
		if strings.ContainsAny(s, " \t") || strings.Contains(s, "://") {
			return fmt.Sprintf("invalid image reference %q", s), true
		}
	}
	return "", false
}

// initService assigns a cluster IP and node ports once, into the stored
// manifest so repeated gets are stable. The applied document may be the
// yamlx cache's, shared by every cluster, so it is copied on write: only
// the nodes on the path to an allocated value — the root, spec, the
// ports sequence and each port given a nodePort — are copied, into the
// cluster's arena (ShallowClone), and a Service that names all of its
// values is stored as applied. validateService has made sure spec is a
// mapping and spec.ports a sequence of mappings.
func (c *Cluster) initService(svc *Object) {
	a := &c.arena
	spec := svc.manifest.Get("spec")
	var newSpec *yamlx.Node
	if spec.Get("clusterIP") == nil {
		newSpec = a.ShallowClone(spec)
		c.nextPodIP++
		newSpec.Set("clusterIP", serviceAddrs.node(c.nextPodIP))
	}
	if typ := spec.Get("type").ScalarString(); typ == "NodePort" || typ == "LoadBalancer" {
		ports := spec.Get("ports")
		var newPorts *yamlx.Node
		for i, p := range ports.Items {
			if p.Get("nodePort") != nil {
				continue
			}
			if newPorts == nil {
				newPorts = a.ShallowClone(ports)
			}
			p = a.ShallowClone(p)
			p.Set("nodePort", a.Integer(int64(c.nextPort)))
			c.nextPort++
			newPorts.Items[i] = p
		}
		if newPorts != nil {
			if newSpec == nil {
				newSpec = a.ShallowClone(spec)
			}
			newSpec.Set("ports", newPorts)
		}
	}
	if newSpec != nil {
		svc.manifest = a.ShallowClone(svc.manifest)
		svc.manifest.Set("spec", newSpec)
	}
}

// withStatus returns the stored manifest decorated with the live status
// fields a kubectl user would see at the current virtual time. The
// document is kept on the object with the generation it was built at:
// a script that reads four fields of one pod at one virtual instant
// builds it once, and any change to the cluster (see touch) makes the
// next read build a new one. Handing the same document to several
// readers is safe because every consumer — table renderers, jsonpath,
// marshalers, condition checks — is read-only, as sharing subtrees with
// the stored manifest has always required of them;
// TestStatusDocsNeverWritten holds them to it and
// TestStatusMemoNeverStale holds the memo to buildStatus. A miss builds
// in the cluster's arena, so a document is good until the cluster's
// next Reset and must not be kept past it: whatever a reader keeps of
// it is a string it copied out.
func (c *Cluster) withStatus(obj *Object) *yamlx.Node {
	if obj.statusDoc == nil || obj.statusGen != c.gen {
		obj.statusDoc, obj.statusGen = c.buildStatus(obj), c.gen
	}
	return obj.statusDoc
}

// buildStatus builds withStatus's document in the cluster's arena. Only
// the spine is copied (root and metadata, via ShallowClone); all other
// subtrees are shared with the stored manifest. A spawned pod, which
// has no manifest, gets its document built whole, in the key order a
// manifest of its own would have had.
func (c *Cluster) buildStatus(obj *Object) *yamlx.Node {
	if obj.manifest == nil {
		return c.spawnedPodDoc(obj)
	}
	n := c.arena.ShallowClone(obj.manifest)
	meta := n.Get("metadata")
	if meta == nil {
		meta = c.arena.Map()
	} else {
		meta = c.arena.ShallowClone(meta)
	}
	n.Set("metadata", meta)
	if meta.Get("namespace") == nil && obj.Resource.Namespaced {
		meta.Set("namespace", c.namespaceNode(obj.Namespace))
	}
	if meta.Get("creationTimestamp") == nil {
		meta.Set("creationTimestamp", c.stamp(obj.CreatedAt))
	}
	switch obj.Resource {
	case Pod:
		n.Set("status", c.podStatus(obj))
	case Deployment, ReplicaSet, StatefulSet:
		n.Set("status", c.workloadStatus(obj))
	case DaemonSet:
		n.Set("status", c.daemonSetStatus(obj))
	case Job:
		n.Set("status", c.jobStatus(obj))
	case Service:
		n.Set("status", c.serviceStatus(obj))
	case Ingress:
		n.Set("status", c.ingressStatus(obj))
	}
	return n
}

// spawnedPodDoc is a spawned pod's status document: apiVersion, kind,
// metadata (name, namespace, the template's labels, creationTimestamp),
// the template's spec and the pod's status.
func (c *Cluster) spawnedPodDoc(obj *Object) *yamlx.Node {
	a := &c.arena
	var metaBuf [4]yamlx.Entry
	var docBuf [5]yamlx.Entry
	meta := append(metaBuf[:0], kv("name", a.String(obj.Name)), kv("namespace", c.namespaceNode(obj.Namespace)))
	if obj.tmplLabels != nil {
		meta = append(meta, kv("labels", obj.tmplLabels))
	}
	meta = append(meta, kv("creationTimestamp", c.stamp(obj.CreatedAt)))
	doc := append(docBuf[:0], kv("apiVersion", strV1), kv("kind", strPod), kv("metadata", a.Map(meta...)))
	if obj.tmplSpec != nil {
		doc = append(doc, kv("spec", obj.tmplSpec))
	}
	return a.Map(append(doc, kv("status", c.podStatus(obj)))...)
}

// The scalars and conditions below are shared by every status document
// of every cluster in the process, under the same read-only contract as
// the documents themselves. They outlive every Reset, so they are on
// the heap, not in a cluster's arena.
var (
	strTrue         = yamlx.String("True")
	strFalse        = yamlx.String("False")
	strRunning      = yamlx.String("Running")
	strPending      = yamlx.String("Pending")
	strErrImagePull = yamlx.String("ErrImagePull")
	strNodeIP       = yamlx.String(NodeIP)
	strV1           = yamlx.String("v1")
	strPod          = yamlx.String(Pod.Kind)
	strDefault      = yamlx.String("default")
	boolFalse       = yamlx.Boolean(false)
	boolTrue        = yamlx.Boolean(true)
	intZero         = yamlx.Integer(0)
	intOne          = yamlx.Integer(1)

	condInitialized     = newCondition("Initialized")
	condReady           = newCondition("Ready")
	condContainersReady = newCondition("ContainersReady")
	condPodScheduled    = newCondition("PodScheduled")
	condAvailable       = newCondition("Available")
	condProgressing     = newCondition("Progressing")
	condComplete        = newCondition("Complete")
)

func kv(key string, v *yamlx.Node) yamlx.Entry { return yamlx.Entry{Key: key, Value: v} }

// namespaceNode is a namespace name as a scalar, shared for "default".
func (c *Cluster) namespaceNode(ns string) *yamlx.Node {
	if ns == "default" {
		return strDefault
	}
	return c.arena.String(ns)
}

// mapOf returns a heap mapping of exactly these entries, in this order,
// for the shared conditions.
func mapOf(entries ...yamlx.Entry) *yamlx.Node {
	return &yamlx.Node{Kind: yamlx.MapKind, Entries: entries}
}

// condition is one entry of status.conditions in both its states,
// {type: T, status: "False"} and {type: T, status: "True"}.
type condition [2]*yamlx.Node

func newCondition(condType string) condition {
	t := yamlx.String(condType)
	return condition{
		mapOf(kv("type", t), kv("status", strFalse)),
		mapOf(kv("type", t), kv("status", strTrue)),
	}
}

func (cd condition) is(status bool) *yamlx.Node {
	if status {
		return cd[1]
	}
	return cd[0]
}

// PodReady reports whether a pod object is Ready at the current time.
func (c *Cluster) PodReady(obj *Object) bool {
	return !obj.Failed && !obj.ReadyAt.IsZero() && !c.now.Before(obj.ReadyAt)
}

// ObjectCondition reports whether a stored resource currently satisfies
// the named status condition — exactly the predicate that
// hasCondition(withStatus(obj), condType) computes, but evaluated
// directly on the object so the wait loop's polling never materializes
// status documents. TestObjectConditionMatchesStatus asserts the
// equivalence for every kind and condition the status builders emit.
func (c *Cluster) ObjectCondition(obj *Object, condType string) bool {
	switch obj.Resource {
	case Pod:
		switch {
		case strings.EqualFold(condType, "Ready"), strings.EqualFold(condType, "ContainersReady"):
			return c.PodReady(obj)
		case strings.EqualFold(condType, "Initialized"):
			return !obj.Failed
		case strings.EqualFold(condType, "PodScheduled"):
			return true
		}
	case Deployment, ReplicaSet, StatefulSet:
		switch {
		case strings.EqualFold(condType, "Progressing"):
			return true
		case strings.EqualFold(condType, "Available"), strings.EqualFold(condType, "Ready"):
			return c.workloadAllReady(obj)
		}
	case DaemonSet:
		if strings.EqualFold(condType, "Ready") {
			return c.readyOwnedPods(obj) >= 1
		}
	case Job:
		if strings.EqualFold(condType, "Complete") {
			return !obj.DoneAt.IsZero() && !c.now.Before(obj.DoneAt)
		}
	}
	return false
}

// workloadAllReady reports whether a workload's ready pods meet its
// desired replica count, the predicate behind its Available/Ready
// conditions.
func (c *Cluster) workloadAllReady(obj *Object) bool {
	desired := int64(1)
	if r, ok := obj.spec().Get("replicas").AsInt(); ok {
		desired = r
	}
	return c.readyOwnedPods(obj) >= desired && desired > 0
}

// readyOwnedPods counts the Ready pods a workload owns.
func (c *Cluster) readyOwnedPods(obj *Object) int64 {
	ready := int64(0)
	for _, p := range c.bucket(Pod) {
		if p.ownedBy(obj) && c.PodReady(p) {
			ready++
		}
	}
	return ready
}

func (c *Cluster) podStatus(obj *Object) *yamlx.Node {
	a := &c.arena
	ready := c.PodReady(obj)
	phase, readyNode := strPending, boolFalse
	if ready {
		phase, readyNode = strRunning, boolTrue
	}
	var buf [7]yamlx.Entry
	st := append(buf[:0], kv("phase", phase))
	if obj.Failed {
		st = append(st, kv("reason", strErrImagePull), kv("message", a.String(obj.FailMsg)))
	}
	ctStatuses := a.Seq()
	if containers := obj.spec().Get("containers"); containers != nil {
		ctStatuses = a.Seq(containers.Items...) // the same length; each item replaced below
		for i, ct := range containers.Items {
			ctStatuses.Items[i] = a.Map(
				kv("name", ct.Get("name")),
				kv("image", ct.Get("image")),
				kv("ready", readyNode),
				kv("restartCount", intZero),
			)
		}
	}
	return a.Map(append(st,
		kv("hostIP", strNodeIP),
		kv("podIP", podAddrs.nodeOf(obj.PodIP)),
		kv("conditions", a.Seq(
			condInitialized.is(!obj.Failed),
			condReady.is(ready),
			condContainersReady.is(ready),
			condPodScheduled.is(true),
		)),
		kv("containerStatuses", ctStatuses),
	)...)
}

func (c *Cluster) workloadStatus(obj *Object) *yamlx.Node {
	a := &c.arena
	desired := int64(1)
	if r, ok := obj.spec().Get("replicas").AsInt(); ok {
		desired = r
	}
	ready := c.readyOwnedPods(obj)
	desiredNode, readyNode := a.Integer(desired), a.Integer(ready)
	allReady := ready >= desired && desired > 0
	return a.Map(
		kv("replicas", desiredNode),
		kv("readyReplicas", readyNode),
		kv("availableReplicas", readyNode),
		kv("updatedReplicas", desiredNode),
		kv("conditions", a.Seq(
			condAvailable.is(allReady),
			condProgressing.is(true),
			condReady.is(allReady),
		)),
	)
}

func (c *Cluster) daemonSetStatus(obj *Object) *yamlx.Node {
	a := &c.arena
	ready := c.readyOwnedPods(obj)
	return a.Map(
		kv("desiredNumberScheduled", intOne),
		kv("currentNumberScheduled", intOne),
		kv("numberReady", a.Integer(ready)),
		kv("conditions", a.Seq(condReady.is(ready >= 1))),
	)
}

func (c *Cluster) jobStatus(obj *Object) *yamlx.Node {
	a := &c.arena
	done := !obj.DoneAt.IsZero() && !c.now.Before(obj.DoneAt)
	conds := kv("conditions", a.Seq(condComplete.is(done)))
	if !done {
		return a.Map(kv("active", intOne), conds)
	}
	return a.Map(
		kv("succeeded", intOne),
		kv("completionTime", c.stamp(obj.DoneAt)),
		conds,
	)
}

func (c *Cluster) serviceStatus(obj *Object) *yamlx.Node {
	typ := obj.spec().Get("type").ScalarString()
	return c.loadBalancerStatus(obj, typ == "LoadBalancer")
}

func (c *Cluster) ingressStatus(obj *Object) *yamlx.Node {
	return c.loadBalancerStatus(obj, true)
}

// loadBalancerStatus is the status of a Service or an Ingress: its
// loadBalancer gains the node's address once provisioning time is up.
func (c *Cluster) loadBalancerStatus(obj *Object, balanced bool) *yamlx.Node {
	a := &c.arena
	var lb *yamlx.Node
	if balanced && !c.now.Before(obj.CreatedAt.Add(LBProvisionTime)) {
		lb = a.Map(kv("ingress", a.Seq(a.Map(kv("ip", strNodeIP)))))
	} else {
		lb = a.Map()
	}
	return a.Map(kv("loadBalancer", lb))
}

// shortHash derives a stable 6-character suffix from a name, like the
// hashes in real pod names.
func shortHash(s string) [6]byte {
	const alphabet = "bcdfghjklmnpqrstvwxz2456789"
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	var out [6]byte
	for i := range out {
		out[i] = alphabet[h%uint32(len(alphabet))]
		h /= uint32(len(alphabet))
		if h == 0 {
			h = 7 + uint32(i)*31
		}
	}
	return out
}
