package kubesim

import (
	"fmt"

	"cloudeval/internal/yamlx"
)

// ValidateManifest performs the schema checks kubectl's server-side
// strict decoding would apply for the kinds the benchmark exercises. It
// is intentionally unforgiving about the classic mistakes the dataset's
// debugging problems revolve around (for example the pre-v1 Ingress
// backend fields).
func ValidateManifest(doc *yamlx.Node) error {
	if doc == nil || doc.Kind != yamlx.MapKind {
		return fmt.Errorf("error: unable to decode: document is not a mapping")
	}
	kind := doc.Get("kind")
	if kind == nil || kind.ScalarString() == "" {
		return fmt.Errorf("error: unable to decode: Object 'Kind' is missing")
	}
	apiVersion := doc.Get("apiVersion")
	if apiVersion == nil || apiVersion.ScalarString() == "" {
		return fmt.Errorf("error: unable to decode: Object 'apiVersion' is missing")
	}
	k := kind.ScalarString()
	av := apiVersion.ScalarString()
	meta := doc.Get("metadata")
	if kindKey(k) != "list" {
		if meta == nil || meta.Get("name") == nil || meta.Get("name").ScalarString() == "" {
			return fmt.Errorf("error: resource name may not be empty (%s)", k)
		}
	}
	if want, ok := expectedAPIVersions[kindKey(k)]; ok {
		if !apiVersionAllowed(av, want) {
			return fmt.Errorf("error: unable to recognize: no matches for kind %q in version %q", k, av)
		}
	}
	switch kindKey(k) {
	case "ingress":
		return validateIngress(doc, av)
	case "deployment", "daemonset", "statefulset", "replicaset":
		return validateWorkload(doc, k)
	case "job":
		return validateJob(doc)
	case "cronjob":
		return validateCronJob(doc)
	case "service":
		return validateService(doc)
	case "rolebinding", "clusterrolebinding":
		return validateRoleBinding(doc, k)
	case "pod":
		return validatePodSpec(doc.Get("spec"), k)
	case "destinationrule":
		if doc.Path("spec", "host") == nil {
			return fmt.Errorf("error validating DestinationRule: spec.host is required")
		}
	case "virtualservice":
		if doc.Path("spec", "hosts") == nil {
			return fmt.Errorf("error validating VirtualService: spec.hosts is required")
		}
	case "persistentvolumeclaim":
		if doc.Path("spec", "accessModes") == nil {
			return fmt.Errorf("error validating PersistentVolumeClaim: spec.accessModes is required")
		}
	case "horizontalpodautoscaler":
		if doc.Path("spec", "scaleTargetRef") == nil {
			return fmt.Errorf("error validating HorizontalPodAutoscaler: spec.scaleTargetRef is required")
		}
	}
	return nil
}

// expectedAPIVersions pins the kinds with a single valid group/version
// in current clusters.
var expectedAPIVersions = map[string][]string{
	"deployment":              {"apps/v1"},
	"daemonset":               {"apps/v1"},
	"statefulset":             {"apps/v1"},
	"replicaset":              {"apps/v1"},
	"pod":                     {"v1"},
	"service":                 {"v1"},
	"namespace":               {"v1"},
	"configmap":               {"v1"},
	"secret":                  {"v1"},
	"serviceaccount":          {"v1"},
	"limitrange":              {"v1"},
	"persistentvolume":        {"v1"},
	"persistentvolumeclaim":   {"v1"},
	"job":                     {"batch/v1"},
	"cronjob":                 {"batch/v1"},
	"ingress":                 {"networking.k8s.io/v1"},
	"networkpolicy":           {"networking.k8s.io/v1"},
	"role":                    {"rbac.authorization.k8s.io/v1"},
	"rolebinding":             {"rbac.authorization.k8s.io/v1"},
	"clusterrole":             {"rbac.authorization.k8s.io/v1"},
	"clusterrolebinding":      {"rbac.authorization.k8s.io/v1"},
	"horizontalpodautoscaler": {"autoscaling/v2", "autoscaling/v1"},
	"destinationrule":         {"networking.istio.io/v1alpha3", "networking.istio.io/v1beta1", "networking.istio.io/v1"},
	"virtualservice":          {"networking.istio.io/v1alpha3", "networking.istio.io/v1beta1", "networking.istio.io/v1"},
	"gateway":                 {"networking.istio.io/v1alpha3", "networking.istio.io/v1beta1", "networking.istio.io/v1"},
}

func apiVersionAllowed(got string, want []string) bool {
	for _, w := range want {
		if got == w {
			return true
		}
	}
	return false
}

func validateIngress(doc *yamlx.Node, apiVersion string) error {
	rules := doc.Path("spec", "rules")
	if rules == nil || rules.Kind != yamlx.SeqKind {
		return nil // an Ingress with only a defaultBackend is legal
	}
	for _, rule := range rules.Items {
		paths := rule.Path("http", "paths")
		if paths == nil || paths.Kind != yamlx.SeqKind {
			continue
		}
		for _, p := range paths.Items {
			backend := p.Get("backend")
			if backend == nil {
				return fmt.Errorf("error validating Ingress: spec.rules[0].http.paths[0].backend is required")
			}
			// The classic migration bug: v1 dropped serviceName/servicePort.
			if backend.Has("serviceName") || backend.Has("servicePort") {
				return fmt.Errorf(`Ingress in version "v1" cannot be handled as a Ingress: strict decoding error: unknown field "spec.rules[0].http.paths[0].backend.serviceName", unknown field "spec.rules[0].http.paths[0].backend.servicePort"`)
			}
			svc := backend.Get("service")
			if svc == nil || svc.Get("name") == nil {
				return fmt.Errorf("error validating Ingress: backend.service.name is required")
			}
			if svc.Path("port") == nil {
				return fmt.Errorf("error validating Ingress: backend.service.port is required")
			}
			if p.Get("pathType") == nil {
				return fmt.Errorf("error validating Ingress: spec.rules[0].http.paths[0].pathType: Required value: pathType must be specified")
			}
		}
	}
	return nil
}

func validateWorkload(doc *yamlx.Node, kind string) error {
	spec := doc.Get("spec")
	if spec == nil {
		return fmt.Errorf("error validating %s: spec is required", kind)
	}
	sel := spec.Path("selector", "matchLabels")
	if sel == nil {
		return fmt.Errorf("error validating %s: spec.selector: Required value", kind)
	}
	tmpl := spec.Get("template")
	if tmpl == nil {
		return fmt.Errorf("error validating %s: spec.template: Required value", kind)
	}
	tmplLabels := tmpl.Path("metadata", "labels")
	for _, e := range sel.Entries {
		lv := tmplLabels.Get(e.Key)
		if lv == nil || lv.ScalarString() != e.Value.ScalarString() {
			return fmt.Errorf(`error validating %s: "spec.template.metadata.labels" does not match selector %q`, kind, e.Key+"="+e.Value.ScalarString())
		}
	}
	return validatePodSpec(tmpl.Get("spec"), kind)
}

func validateJob(doc *yamlx.Node) error {
	tmpl := doc.Path("spec", "template")
	if tmpl == nil {
		return fmt.Errorf("error validating Job: spec.template: Required value")
	}
	return validatePodSpec(tmpl.Get("spec"), "Job")
}

func validateCronJob(doc *yamlx.Node) error {
	if doc.Path("spec", "schedule") == nil {
		return fmt.Errorf("error validating CronJob: spec.schedule: Required value")
	}
	if doc.Path("spec", "jobTemplate") == nil {
		return fmt.Errorf("error validating CronJob: spec.jobTemplate: Required value")
	}
	return nil
}

func validatePodSpec(spec *yamlx.Node, kind string) error {
	if spec == nil {
		return fmt.Errorf("error validating %s: spec: Required value", kind)
	}
	containers := spec.Get("containers")
	if containers == nil || containers.Kind != yamlx.SeqKind || len(containers.Items) == 0 {
		return fmt.Errorf("error validating %s: spec.containers: Required value", kind)
	}
	for i, ct := range containers.Items {
		if ct.Get("name") == nil || ct.Get("name").ScalarString() == "" {
			return fmt.Errorf("error validating %s: spec.containers[%d].name: Required value", kind, i)
		}
		if ct.Get("image") == nil || ct.Get("image").ScalarString() == "" {
			return fmt.Errorf("error validating %s: spec.containers[%d].image: Required value", kind, i)
		}
		if env := ct.Get("env"); env != nil && env.Kind == yamlx.SeqKind {
			for j, e := range env.Items {
				if e.Get("name") == nil {
					return fmt.Errorf("error validating %s: spec.containers[%d].env[%d].name: Required value", kind, i, j)
				}
				// Env values must be strings in strict decoding.
				if v := e.Get("value"); v != nil && (v.Kind == yamlx.IntKind || v.Kind == yamlx.FloatKind || v.Kind == yamlx.BoolKind) {
					return fmt.Errorf(`error validating %s: cannot unmarshal number into Go struct field EnvVar.spec.containers[%d].env[%d].value of type string`, kind, i, j)
				}
			}
		}
		if ports := ct.Get("ports"); ports != nil && ports.Kind == yamlx.SeqKind {
			for j, prt := range ports.Items {
				cp := prt.Get("containerPort")
				if cp == nil {
					return fmt.Errorf("error validating %s: spec.containers[%d].ports[%d].containerPort: Required value", kind, i, j)
				}
				if v, ok := cp.AsInt(); !ok || v < 1 || v > 65535 {
					return fmt.Errorf("error validating %s: spec.containers[%d].ports[%d].containerPort: Invalid value: %s", kind, i, j, cp.ScalarString())
				}
			}
		}
	}
	return nil
}

func validateService(doc *yamlx.Node) error {
	spec := doc.Get("spec")
	if spec == nil {
		return fmt.Errorf("error validating Service: spec is required")
	}
	ports := spec.Get("ports")
	if ports == nil || ports.Kind != yamlx.SeqKind || len(ports.Items) == 0 {
		return fmt.Errorf("error validating Service: spec.ports: Required value")
	}
	for i, p := range ports.Items {
		pn := p.Get("port")
		if pn == nil {
			return fmt.Errorf("error validating Service: spec.ports[%d].port: Required value", i)
		}
		if v, ok := pn.AsInt(); !ok || v < 1 || v > 65535 {
			return fmt.Errorf("error validating Service: spec.ports[%d].port: Invalid value: %s", i, pn.ScalarString())
		}
	}
	if typ := spec.Get("type"); typ != nil {
		switch typ.ScalarString() {
		case "ClusterIP", "NodePort", "LoadBalancer", "ExternalName":
		default:
			return fmt.Errorf("error validating Service: spec.type: Unsupported value: %q", typ.ScalarString())
		}
	}
	return nil
}

func validateRoleBinding(doc *yamlx.Node, kind string) error {
	roleRef := doc.Get("roleRef")
	if roleRef == nil {
		return fmt.Errorf("error validating %s: roleRef: Required value", kind)
	}
	for _, f := range []string{"kind", "name", "apiGroup"} {
		if roleRef.Get(f) == nil {
			return fmt.Errorf("error validating %s: roleRef.%s: Required value", kind, f)
		}
	}
	if subjects := doc.Get("subjects"); subjects != nil && subjects.Kind == yamlx.SeqKind {
		for i, s := range subjects.Items {
			if s.Get("kind") == nil || s.Get("name") == nil {
				return fmt.Errorf("error validating %s: subjects[%d]: kind and name are required", kind, i)
			}
		}
	}
	return nil
}

// KindOf returns the canonical kind key for a manifest, or "".
func KindOf(doc *yamlx.Node) string {
	if doc == nil {
		return ""
	}
	k := doc.Get("kind")
	if k == nil {
		return ""
	}
	return kindKey(k.ScalarString())
}

// FirstKind extracts the first document kind from raw YAML text, the way
// the benchmark's failure-mode analysis classifies answers.
func FirstKind(src string) string {
	docs, err := yamlx.ParseAllCached(src)
	if err != nil {
		return ""
	}
	for _, d := range docs {
		if d != nil && d.Kind == yamlx.MapKind {
			if k := d.Get("kind"); k != nil {
				return k.ScalarString()
			}
		}
	}
	return ""
}
