package kubesim

import (
	"fmt"
	"strings"

	"cloudeval/internal/yamlx"
)

// Describe renders a "kubectl describe"-style text block for one
// resource. Only the fields the benchmark's unit tests grep for are
// guaranteed; the rest is a readable summary.
func (c *Cluster) Describe(r *Resource, ns, name string) (string, error) {
	obj, ok := c.GetObject(r, ns, name)
	if !ok {
		return "", fmt.Errorf(`Error from server (NotFound): %s %q not found`, r.Singular, name)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Name:             %s\n", obj.Name)
	if r.Namespaced {
		fmt.Fprintf(&b, "Namespace:        %s\n", obj.Namespace)
	}
	if labels := obj.Manifest.Path("metadata", "labels"); labels != nil && labels.Kind == yamlx.MapKind && len(labels.Entries) > 0 {
		var parts []string
		for _, e := range labels.Entries {
			parts = append(parts, e.Key+"="+e.Value.ScalarString())
		}
		fmt.Fprintf(&b, "Labels:           %s\n", strings.Join(parts, ","))
	} else {
		b.WriteString("Labels:           <none>\n")
	}
	if ann := obj.Manifest.Path("metadata", "annotations"); ann != nil && ann.Kind == yamlx.MapKind {
		b.WriteString("Annotations:      ")
		var parts []string
		for _, e := range ann.Entries {
			parts = append(parts, e.Key+": "+e.Value.ScalarString())
		}
		b.WriteString(strings.Join(parts, "\n                  ") + "\n")
	}
	switch r {
	case Ingress:
		c.describeIngress(&b, obj)
	case Service:
		c.describeService(&b, obj)
	case Pod:
		c.describePod(&b, obj)
	case Deployment, DaemonSet, StatefulSet, ReplicaSet:
		c.describeWorkload(&b, obj)
	default:
		b.WriteString("Spec:\n")
		if spec := obj.Manifest.Get("spec"); spec != nil {
			indented(&b, yamlx.MarshalString(spec))
		}
	}
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
	rules := obj.Manifest.Path("spec", "rules")
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

func (c *Cluster) describeService(b *strings.Builder, obj *Object) {
	spec := obj.Manifest.Get("spec")
	typ := spec.Get("type").ScalarString()
	if typ == "" {
		typ = "ClusterIP"
	}
	fmt.Fprintf(b, "Type:             %s\n", typ)
	fmt.Fprintf(b, "IP:               %s\n", spec.Get("clusterIP").ScalarString())
	if sel := spec.Get("selector"); sel != nil && sel.Kind == yamlx.MapKind {
		var parts []string
		for _, e := range sel.Entries {
			parts = append(parts, e.Key+"="+e.Value.ScalarString())
		}
		fmt.Fprintf(b, "Selector:         %s\n", strings.Join(parts, ","))
	}
	if typ == "LoadBalancer" && !c.now.Before(obj.CreatedAt.Add(LBProvisionTime)) {
		fmt.Fprintf(b, "LoadBalancer Ingress:  %s\n", NodeIP)
	}
	if ports := spec.Get("ports"); ports != nil {
		for _, p := range ports.Items {
			name := p.Get("name").ScalarString()
			if name == "" {
				name = "<unset>"
			}
			fmt.Fprintf(b, "Port:             %s  %s/TCP\n", name, p.Get("port").ScalarString())
			if tp := p.Get("targetPort"); tp != nil {
				fmt.Fprintf(b, "TargetPort:       %s/TCP\n", tp.ScalarString())
			}
			if np := p.Get("nodePort"); np != nil {
				fmt.Fprintf(b, "NodePort:         %s  %s/TCP\n", name, np.ScalarString())
			}
		}
	}
	fmt.Fprintf(b, "Endpoints:        %s\n", c.EndpointsString(obj))
}

func (c *Cluster) describePod(b *strings.Builder, obj *Object) {
	status := "Pending"
	if obj.Failed {
		status = "Pending (ErrImagePull)"
	} else if c.PodReady(obj) {
		status = "Running"
	}
	fmt.Fprintf(b, "Node:             minikube/%s\n", NodeIP)
	fmt.Fprintf(b, "Status:           %s\n", status)
	fmt.Fprintf(b, "IP:               %s\n", obj.PodIP)
	b.WriteString("Containers:\n")
	if containers := obj.Manifest.Path("spec", "containers"); containers != nil {
		for _, ct := range containers.Items {
			fmt.Fprintf(b, "  %s:\n    Image:  %s\n", ct.Get("name").ScalarString(), ct.Get("image").ScalarString())
			if ports := ct.Get("ports"); ports != nil {
				for _, p := range ports.Items {
					fmt.Fprintf(b, "    Port:   %s/TCP\n", p.Get("containerPort").ScalarString())
				}
			}
		}
	}
}

func (c *Cluster) describeWorkload(b *strings.Builder, obj *Object) {
	desired := int64(1)
	if r, ok := obj.Manifest.Path("spec", "replicas").AsInt(); ok {
		desired = r
	}
	fmt.Fprintf(b, "Replicas:         %d desired | %d ready\n", desired, c.readyOwnedPods(obj))
	if img := obj.Manifest.Path("spec", "template", "spec", "containers", 0, "image"); img != nil {
		fmt.Fprintf(b, "Image:            %s\n", img.ScalarString())
	}
}

func indented(b *strings.Builder, s string) {
	for _, ln := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		b.WriteString("  " + ln + "\n")
	}
}
