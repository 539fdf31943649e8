package kubesim

import "strings"

// Resource is one row of the resource table: a kind the simulator
// serves. Everything the simulator knows about a kind's names, scope,
// group/versions and required fields is here; what it does with an
// object of the kind — its controllers, status, describe sections, get
// columns — is chosen by the row, never by a spelling.
type Resource struct {
	Kind       string   // as manifests spell it: "Deployment"
	Singular   string   // strings.ToLower(Kind), set by row
	Plural     string   // kubectl's resource name: "deployments"
	ShortNames []string // kubectl's abbreviations: "deploy"
	Versions   []string // the apiVersions a manifest may carry, preferred first
	Namespaced bool

	// GroupResource is Plural and Versions[0]'s API group, as a NotFound
	// names the row: "deployments.apps", "pods" in the core group; set by row.
	GroupResource string
	fields        []field // what a manifest of the kind must hold, as ValidateManifest walks it
	selector      bool    // the pod template's labels must carry spec.selector.matchLabels
	bucket        int     // the row's index in Resources and in Cluster.objects
}

var (
	core       = []string{"v1"}
	apps       = []string{"apps/v1"}
	batch      = []string{"batch/v1"}
	networking = []string{"networking.k8s.io/v1"}
	rbac       = []string{"rbac.authorization.k8s.io/v1"}
	istio      = []string{"networking.istio.io/v1", "networking.istio.io/v1beta1", "networking.istio.io/v1alpha3"}
)

// What the rows that check more than their names require. The messages
// Table 4's executions print keep the text the pinned stderr digest
// holds: a pod spec's paths start at its own "spec", and two absent
// fields say what their hand-written validators said.
var (
	podSpec = f("spec", required|rooted,
		f("containers", each|filled,
			f("name", filled),
			f("image", filled),
			f("env", each, f("name", required), f("value", text)),
			f("ports", each, f("containerPort", required|port))))
	workloadFields   = []field{f("spec", required, f("template", required, podSpec))}
	replicatedFields = []field{f("spec", required, f("template", required, podSpec), f("replicas", replicas))}
	jobFields        = []field{f("spec", 0, f("template", required, podSpec))}
	cronJobFields    = []field{f("spec", 0, f("schedule", required), f("jobTemplate", required))}
	serviceFields    = []field{{key: "spec", is: required, says: "spec is required", fields: []field{
		f("ports", each|filled, f("port", required|port)),
		{key: "type", enum: []string{"ClusterIP", "NodePort", "LoadBalancer", "ExternalName"}},
	}}}
	ingressFields = []field{f("spec", 0, f("rules", each, f("http", 0, f("paths", each,
		f("backend", required,
			f("serviceName", dropped),
			f("servicePort", dropped),
			f("service", 0,
				field{key: "name", is: required, says: "backend.service.name is required"},
				field{key: "port", is: required, says: "backend.service.port is required"})),
		f("pathType", required)))))}
	bindingFields = []field{
		f("roleRef", required, f("kind", required), f("name", required), f("apiGroup", required)),
		f("subjects", each, f("kind", required), f("name", required)),
	}
)

// maxReplicas is the pod budget: the most replicas a workload may ask
// for, since the cluster allocates an Object per replica. It is ten
// times the largest count applied by a corpus reference (3) or by any
// of the 542,880 zoo generations of TestGenerateDigestPinned's sweep
// (17, gpt-3.5 on k8s-deployment-013).
const maxReplicas = 170

// specHolds is the fields of a kind whose spec must hold key.
func specHolds(key string) []field { return []field{f("spec", 0, f(key, required))} }

// The table, one row per kind, in the order "kubectl api-resources"
// lists it: by group, then by name. Package variables are initialised
// in declaration order, so that is also the order row appends them to
// Resources in, as long as the fields the rows name are declared above
// them.
var (
	ConfigMap             = row(&Resource{Kind: "ConfigMap", Plural: "configmaps", ShortNames: []string{"cm"}, Versions: core, Namespaced: true})
	LimitRange            = row(&Resource{Kind: "LimitRange", Plural: "limitranges", ShortNames: []string{"limits"}, Versions: core, Namespaced: true})
	Namespace             = row(&Resource{Kind: "Namespace", Plural: "namespaces", ShortNames: []string{"ns"}, Versions: core})
	Node                  = row(&Resource{Kind: "Node", Plural: "nodes", ShortNames: []string{"no"}, Versions: core})
	PersistentVolumeClaim = row(&Resource{Kind: "PersistentVolumeClaim", Plural: "persistentvolumeclaims", ShortNames: []string{"pvc"}, Versions: core, Namespaced: true, fields: specHolds("accessModes")})
	PersistentVolume      = row(&Resource{Kind: "PersistentVolume", Plural: "persistentvolumes", ShortNames: []string{"pv"}, Versions: core})
	Pod                   = row(&Resource{Kind: "Pod", Plural: "pods", ShortNames: []string{"po"}, Versions: core, Namespaced: true, fields: []field{podSpec}})
	ResourceQuota         = row(&Resource{Kind: "ResourceQuota", Plural: "resourcequotas", ShortNames: []string{"quota"}, Versions: core, Namespaced: true})
	Secret                = row(&Resource{Kind: "Secret", Plural: "secrets", Versions: core, Namespaced: true})
	ServiceAccount        = row(&Resource{Kind: "ServiceAccount", Plural: "serviceaccounts", ShortNames: []string{"sa"}, Versions: core, Namespaced: true})
	Service               = row(&Resource{Kind: "Service", Plural: "services", ShortNames: []string{"svc"}, Versions: core, Namespaced: true, fields: serviceFields})

	DaemonSet   = row(&Resource{Kind: "DaemonSet", Plural: "daemonsets", ShortNames: []string{"ds"}, Versions: apps, Namespaced: true, fields: workloadFields, selector: true})
	Deployment  = row(&Resource{Kind: "Deployment", Plural: "deployments", ShortNames: []string{"deploy"}, Versions: apps, Namespaced: true, fields: replicatedFields, selector: true})
	ReplicaSet  = row(&Resource{Kind: "ReplicaSet", Plural: "replicasets", ShortNames: []string{"rs"}, Versions: apps, Namespaced: true, fields: replicatedFields, selector: true})
	StatefulSet = row(&Resource{Kind: "StatefulSet", Plural: "statefulsets", ShortNames: []string{"sts"}, Versions: apps, Namespaced: true, fields: replicatedFields, selector: true})

	HorizontalPodAutoscaler = row(&Resource{Kind: "HorizontalPodAutoscaler", Plural: "horizontalpodautoscalers", ShortNames: []string{"hpa"}, Versions: []string{"autoscaling/v2", "autoscaling/v1"}, Namespaced: true, fields: specHolds("scaleTargetRef")})

	CronJob = row(&Resource{Kind: "CronJob", Plural: "cronjobs", ShortNames: []string{"cj"}, Versions: batch, Namespaced: true, fields: cronJobFields})
	Job     = row(&Resource{Kind: "Job", Plural: "jobs", Versions: batch, Namespaced: true, fields: jobFields})

	Ingress       = row(&Resource{Kind: "Ingress", Plural: "ingresses", ShortNames: []string{"ing"}, Versions: networking, Namespaced: true, fields: ingressFields})
	NetworkPolicy = row(&Resource{Kind: "NetworkPolicy", Plural: "networkpolicies", ShortNames: []string{"netpol"}, Versions: networking, Namespaced: true})

	ClusterRoleBinding = row(&Resource{Kind: "ClusterRoleBinding", Plural: "clusterrolebindings", Versions: rbac, fields: bindingFields})
	ClusterRole        = row(&Resource{Kind: "ClusterRole", Plural: "clusterroles", Versions: rbac})
	RoleBinding        = row(&Resource{Kind: "RoleBinding", Plural: "rolebindings", Versions: rbac, Namespaced: true, fields: bindingFields})
	Role               = row(&Resource{Kind: "Role", Plural: "roles", Versions: rbac, Namespaced: true})

	StorageClass = row(&Resource{Kind: "StorageClass", Plural: "storageclasses", ShortNames: []string{"sc"}, Versions: []string{"storage.k8s.io/v1"}})

	DestinationRule = row(&Resource{Kind: "DestinationRule", Plural: "destinationrules", ShortNames: []string{"dr"}, Versions: istio, Namespaced: true, fields: specHolds("host")})
	Gateway         = row(&Resource{Kind: "Gateway", Plural: "gateways", ShortNames: []string{"gw"}, Versions: istio, Namespaced: true})
	VirtualService  = row(&Resource{Kind: "VirtualService", Plural: "virtualservices", ShortNames: []string{"vs"}, Versions: istio, Namespaced: true, fields: specHolds("hosts")})
)

// Resources is the table's rows, in declaration order.
var Resources []*Resource

// spellings maps every name of every row — Kind, singular, plural, each
// short name and each short name in the plural ("pvcs") — to the row.
var spellings = map[string]*Resource{}

// row adds r to the table.
func row(r *Resource) *Resource {
	r.Singular, r.GroupResource, r.bucket = strings.ToLower(r.Kind), r.Plural, len(Resources)
	if group, _, ok := strings.Cut(r.Versions[0], "/"); ok {
		r.GroupResource += "." + group
	}
	Resources = append(Resources, r)
	for _, s := range append([]string{r.Kind, r.Singular, r.Plural}, r.ShortNames...) {
		spellings[s] = r
	}
	for _, s := range r.ShortNames {
		spellings[s+"s"] = r
	}
	return r
}

// Lookup returns the row a kind spelling names, as kubectl arguments and
// manifests' kind fields spell it. A spelling is tried as given, then
// once more lower-cased and trimmed, so "PODS" and " ns " resolve too.
func Lookup(spelling string) (*Resource, bool) {
	r, ok := spellings[spelling]
	if !ok {
		r, ok = spellings[strings.ToLower(strings.TrimSpace(spelling))]
	}
	return r, ok
}

// namespace is where an object of the row named in ns lives: nowhere
// for a cluster-scoped row, "default" when ns is empty.
func (r *Resource) namespace(ns string) string {
	if !r.Namespaced {
		return ""
	}
	if ns == "" {
		return "default"
	}
	return ns
}
