package kubesim

import (
	"fmt"
	"slices"

	"cloudeval/internal/yamlx"
)

// ValidateManifest performs the schema checks kubectl's server-side
// strict decoding would apply for the kinds the benchmark exercises. It
// is intentionally unforgiving about the classic mistakes the dataset's
// debugging problems revolve around (for example the pre-v1 Ingress
// backend fields). A manifest whose kind no row of the table names, or
// whose apiVersion its row does not accept, is refused as the API server
// refuses it. It returns the row of the manifest's kind.
func ValidateManifest(doc *yamlx.Node) (*Resource, error) {
	if doc == nil || doc.Kind != yamlx.MapKind {
		return nil, fmt.Errorf("error: unable to decode: document is not a mapping")
	}
	kind := doc.Get("kind")
	if kind == nil || kind.ScalarString() == "" {
		return nil, fmt.Errorf("error: unable to decode: Object 'Kind' is missing")
	}
	apiVersion := doc.Get("apiVersion")
	if apiVersion == nil || apiVersion.ScalarString() == "" {
		return nil, fmt.Errorf("error: unable to decode: Object 'apiVersion' is missing")
	}
	k := kind.ScalarString()
	av := apiVersion.ScalarString()
	meta := doc.Get("metadata")
	if meta == nil || meta.Get("name") == nil || meta.Get("name").ScalarString() == "" {
		return nil, fmt.Errorf("error: resource name may not be empty (%s)", k)
	}
	r, ok := Lookup(k)
	if !ok || !slices.Contains(r.Versions, av) {
		return nil, noMatch(k, av)
	}
	var err error
	switch r {
	case Ingress:
		err = validateIngress(doc, av)
	case Deployment, DaemonSet, StatefulSet, ReplicaSet:
		err = validateWorkload(doc, k)
	case Job:
		err = validateJob(doc)
	case CronJob:
		err = validateCronJob(doc)
	case Service:
		err = validateService(doc)
	case RoleBinding, ClusterRoleBinding:
		err = validateRoleBinding(doc, k)
	case Pod:
		err = validatePodSpec(doc.Get("spec"), k)
	case DestinationRule:
		err = required(doc, r, "host")
	case VirtualService:
		err = required(doc, r, "hosts")
	case PersistentVolumeClaim:
		err = required(doc, r, "accessModes")
	case HorizontalPodAutoscaler:
		err = required(doc, r, "scaleTargetRef")
	}
	return r, err
}

// required checks that a spec holds the field.
func required(doc *yamlx.Node, r *Resource, field string) error {
	if doc.Path("spec", field) == nil {
		return fmt.Errorf("error validating %s: spec.%s is required", r.Kind, field)
	}
	return nil
}

// noMatch is the API server's answer to a kind it does not serve, or
// serves under other group/versions.
func noMatch(kind, apiVersion string) error {
	return fmt.Errorf("error: unable to recognize: no matches for kind %q in version %q", kind, apiVersion)
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
