package kubesim

import "strings"

// Resource is one row of the resource table: a kind the simulator
// serves. Everything the simulator knows about a kind's names, scope and
// group/versions is here; what it does with an object of the kind — its
// controllers, status, validation, describe sections, get columns — is
// chosen by the row, never by a spelling.
type Resource struct {
	Kind       string   // as manifests spell it: "Deployment"
	Singular   string   // strings.ToLower(Kind), set by row
	Plural     string   // kubectl's resource name: "deployments"
	ShortNames []string // kubectl's abbreviations: "deploy"
	Versions   []string // the apiVersions a manifest may carry, preferred first
	Namespaced bool

	bucket int // the row's index in Resources and in Cluster.objects
}

var (
	core       = []string{"v1"}
	apps       = []string{"apps/v1"}
	batch      = []string{"batch/v1"}
	networking = []string{"networking.k8s.io/v1"}
	rbac       = []string{"rbac.authorization.k8s.io/v1"}
	istio      = []string{"networking.istio.io/v1", "networking.istio.io/v1beta1", "networking.istio.io/v1alpha3"}
)

// The table, one row per kind, in the order "kubectl api-resources"
// lists it: by group, then by name. Package variables are initialised
// in declaration order, so that is also the order row appends them to
// Resources in.
var (
	ConfigMap             = row(&Resource{Kind: "ConfigMap", Plural: "configmaps", ShortNames: []string{"cm"}, Versions: core, Namespaced: true})
	LimitRange            = row(&Resource{Kind: "LimitRange", Plural: "limitranges", Versions: core, Namespaced: true})
	Namespace             = row(&Resource{Kind: "Namespace", Plural: "namespaces", ShortNames: []string{"ns"}, Versions: core})
	Node                  = row(&Resource{Kind: "Node", Plural: "nodes", ShortNames: []string{"no"}, Versions: core})
	PersistentVolumeClaim = row(&Resource{Kind: "PersistentVolumeClaim", Plural: "persistentvolumeclaims", ShortNames: []string{"pvc"}, Versions: core, Namespaced: true})
	PersistentVolume      = row(&Resource{Kind: "PersistentVolume", Plural: "persistentvolumes", ShortNames: []string{"pv"}, Versions: core})
	Pod                   = row(&Resource{Kind: "Pod", Plural: "pods", ShortNames: []string{"po"}, Versions: core, Namespaced: true})
	ResourceQuota         = row(&Resource{Kind: "ResourceQuota", Plural: "resourcequotas", Versions: core, Namespaced: true})
	Secret                = row(&Resource{Kind: "Secret", Plural: "secrets", Versions: core, Namespaced: true})
	ServiceAccount        = row(&Resource{Kind: "ServiceAccount", Plural: "serviceaccounts", ShortNames: []string{"sa"}, Versions: core, Namespaced: true})
	Service               = row(&Resource{Kind: "Service", Plural: "services", ShortNames: []string{"svc"}, Versions: core, Namespaced: true})

	DaemonSet   = row(&Resource{Kind: "DaemonSet", Plural: "daemonsets", ShortNames: []string{"ds"}, Versions: apps, Namespaced: true})
	Deployment  = row(&Resource{Kind: "Deployment", Plural: "deployments", ShortNames: []string{"deploy"}, Versions: apps, Namespaced: true})
	ReplicaSet  = row(&Resource{Kind: "ReplicaSet", Plural: "replicasets", ShortNames: []string{"rs"}, Versions: apps, Namespaced: true})
	StatefulSet = row(&Resource{Kind: "StatefulSet", Plural: "statefulsets", ShortNames: []string{"sts"}, Versions: apps, Namespaced: true})

	HorizontalPodAutoscaler = row(&Resource{Kind: "HorizontalPodAutoscaler", Plural: "horizontalpodautoscalers", ShortNames: []string{"hpa"}, Versions: []string{"autoscaling/v2", "autoscaling/v1"}, Namespaced: true})

	CronJob = row(&Resource{Kind: "CronJob", Plural: "cronjobs", Versions: batch, Namespaced: true})
	Job     = row(&Resource{Kind: "Job", Plural: "jobs", Versions: batch, Namespaced: true})

	Ingress       = row(&Resource{Kind: "Ingress", Plural: "ingresses", ShortNames: []string{"ing"}, Versions: networking, Namespaced: true})
	NetworkPolicy = row(&Resource{Kind: "NetworkPolicy", Plural: "networkpolicies", ShortNames: []string{"netpol"}, Versions: networking, Namespaced: true})

	ClusterRoleBinding = row(&Resource{Kind: "ClusterRoleBinding", Plural: "clusterrolebindings", Versions: rbac})
	ClusterRole        = row(&Resource{Kind: "ClusterRole", Plural: "clusterroles", Versions: rbac})
	RoleBinding        = row(&Resource{Kind: "RoleBinding", Plural: "rolebindings", Versions: rbac, Namespaced: true})
	Role               = row(&Resource{Kind: "Role", Plural: "roles", Versions: rbac, Namespaced: true})

	StorageClass = row(&Resource{Kind: "StorageClass", Plural: "storageclasses", ShortNames: []string{"sc"}, Versions: []string{"storage.k8s.io/v1"}})

	DestinationRule = row(&Resource{Kind: "DestinationRule", Plural: "destinationrules", Versions: istio, Namespaced: true})
	Gateway         = row(&Resource{Kind: "Gateway", Plural: "gateways", Versions: istio, Namespaced: true})
	VirtualService  = row(&Resource{Kind: "VirtualService", Plural: "virtualservices", Versions: istio, Namespaced: true})
)

// Resources is the table's rows, in declaration order.
var Resources []*Resource

// spellings maps every name of every row — Kind, singular, plural, each
// short name and each short name in the plural ("pvcs") — to the row.
var spellings = map[string]*Resource{}

// row adds r to the table.
func row(r *Resource) *Resource {
	r.Singular, r.bucket = strings.ToLower(r.Kind), len(Resources)
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
