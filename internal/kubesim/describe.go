package kubesim

import (
	"fmt"
	"strings"

	"cloudeval/internal/yamlx"
)

// Describe renders "kubectl describe" of the Ingress ns/name, the one
// kind the corpus's unit tests describe. Only the fields the unit tests
// grep for are guaranteed; the rest is a readable summary.
func (c *Cluster) Describe(ns, name string) (string, error) {
	obj, ok := c.GetObject(Ingress, ns, name)
	if !ok {
		return "", c.refuse(ingressNotFound, "", name, "", "")
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Name:             %s\n", obj.Name)
	fmt.Fprintf(&b, "Namespace:        %s\n", obj.Namespace)
	if labels := obj.labels(); labels != nil && labels.Kind == yamlx.MapKind && len(labels.Entries) > 0 {
		var parts []string
		for _, e := range labels.Entries {
			parts = append(parts, e.Key+"="+e.Value.ScalarString())
		}
		fmt.Fprintf(&b, "Labels:           %s\n", strings.Join(parts, ","))
	} else {
		b.WriteString("Labels:           <none>\n")
	}
	if ann := obj.manifest.Path("metadata", "annotations"); ann != nil && ann.Kind == yamlx.MapKind {
		b.WriteString("Annotations:      ")
		var parts []string
		for _, e := range ann.Entries {
			parts = append(parts, e.Key+": "+e.Value.ScalarString())
		}
		b.WriteString(strings.Join(parts, "\n                  ") + "\n")
	}
	c.describeIngress(&b, obj)
	b.WriteString("Events:           <none>\n")
	return b.String(), nil
}

func (c *Cluster) describeIngress(b *strings.Builder, obj *Object) {
	addr := ""
	if !c.now.Before(obj.CreatedAt.Add(LBProvisionTime)) {
		addr = NodeIP
	}
	fmt.Fprintf(b, "Address:          %s\n", addr)
	b.WriteString("Ingress Class:    nginx\n")
	b.WriteString("Default backend:  <default>\n")
	b.WriteString("Rules:\n")
	b.WriteString("  Host        Path  Backends\n")
	b.WriteString("  ----        ----  --------\n")
	rules := obj.spec().Get("rules")
	if rules == nil {
		return
	}
	for _, rule := range rules.Items {
		host := rule.Get("host").ScalarString()
		if host == "" {
			host = "*"
		}
		paths := rule.Path("http", "paths")
		if paths == nil {
			continue
		}
		for _, p := range paths.Items {
			path := p.Get("path").ScalarString()
			svcName := p.Path("backend", "service", "name").ScalarString()
			port := p.Path("backend", "service", "port", "number")
			portStr := port.ScalarString()
			if portStr == "" {
				portStr = p.Path("backend", "service", "port", "name").ScalarString()
			}
			// Resolve endpoints for the backend hint kubectl shows.
			epHint := "<error: services \"" + svcName + "\" not found>"
			if svc, ok := c.GetObject(Service, obj.Namespace, svcName); ok {
				epHint = c.EndpointsString(svc)
			}
			fmt.Fprintf(b, "  %-10s  %-4s  %s:%s (%s)\n", host, path, svcName, portStr, epHint)
		}
	}
}
