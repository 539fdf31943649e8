package kubesim

import (
	"fmt"
	"slices"
	"strings"

	"cloudeval/internal/yamlx"
)

// HTTPProbe simulates an HTTP GET against the cluster's virtual data
// plane, the way the unit tests' "curl" observes deployments. It
// resolves, in order: pod hostPorts on the node IP, NodePort and
// LoadBalancer services on the node IP, pod IPs with containerPorts,
// service cluster IPs and DNS names. It returns the status code (200 on
// success, 503 when a service exists but has no ready endpoints) and a
// body; ok is false when nothing listens there at all (connection
// refused). Where several objects could answer — two pods on one
// hostPort, two namespaces' Services of one name — the first by name
// does, as in every listing, so the answer never depends on map order.
func (c *Cluster) HTTPProbe(host string, port int) (code int, body string, ok bool) {
	// Pod hostPort on the node address.
	if host == NodeIP {
		if p := first(c.bucket(Pod), func(p *Object) bool { return c.podListeningOnHostPort(p, port) }); p != nil {
			return 200, serveBody(p), true
		}
		if s := first(c.bucket(Service), func(s *Object) bool { return c.servesOnNode(s, port) }); s != nil {
			return c.serveThroughService(s)
		}
		return 0, "", false
	}
	// Direct pod IP; no two pods share one.
	for _, p := range c.bucket(Pod) {
		if p.PodIP == host {
			if c.podListeningOnContainerPort(p, port) {
				return 200, serveBody(p), true
			}
			return 0, "", false
		}
	}
	// Service by cluster IP or DNS name.
	if svc := c.resolveService(host); svc != nil {
		if c.serviceHasPort(svc, port, false) {
			return c.serveThroughService(svc)
		}
		return 0, "", false
	}
	return 0, "", false
}

func (c *Cluster) podListeningOnHostPort(p *Object, port int) bool {
	if !c.PodReady(p) {
		return false
	}
	for _, ct := range containerPorts(p.Manifest) {
		if ct.hostPort == port {
			return true
		}
	}
	return false
}

// servesOnNode reports whether a NodePort or LoadBalancer service
// answers on the port at the node address.
func (c *Cluster) servesOnNode(s *Object, port int) bool {
	typ := s.Manifest.Path("spec", "type").ScalarString()
	if typ != "NodePort" && typ != "LoadBalancer" {
		return false
	}
	if c.serviceHasPort(s, port, true) {
		return true
	}
	// A provisioned LoadBalancer also answers on its service port.
	return typ == "LoadBalancer" && !c.now.Before(s.CreatedAt.Add(LBProvisionTime)) && c.serviceHasPort(s, port, false)
}

func (c *Cluster) podListeningOnContainerPort(p *Object, port int) bool {
	if !c.PodReady(p) {
		return false
	}
	for _, ct := range containerPorts(p.Manifest) {
		if ct.containerPort == port {
			return true
		}
	}
	return false
}

type portPair struct {
	containerPort int
	hostPort      int
}

func containerPorts(pod *yamlx.Node) []portPair {
	var out []portPair
	containers := pod.Path("spec", "containers")
	if containers == nil {
		return nil
	}
	for _, ct := range containers.Items {
		ports := ct.Get("ports")
		if ports == nil || ports.Kind != yamlx.SeqKind {
			continue
		}
		for _, p := range ports.Items {
			var pp portPair
			if v, ok := p.Get("containerPort").AsInt(); ok {
				pp.containerPort = int(v)
			}
			if v, ok := p.Get("hostPort").AsInt(); ok {
				pp.hostPort = int(v)
			}
			out = append(out, pp)
		}
	}
	return out
}

// serviceHasPort reports whether a service exposes the port; nodePort
// selects matching against allocated node ports instead of service ports.
func (c *Cluster) serviceHasPort(s *Object, port int, nodePort bool) bool {
	ports := s.Manifest.Path("spec", "ports")
	if ports == nil || ports.Kind != yamlx.SeqKind {
		return false
	}
	field := "port"
	if nodePort {
		field = "nodePort"
	}
	for _, p := range ports.Items {
		if v, ok := p.Get(field).AsInt(); ok && int(v) == port {
			return true
		}
	}
	return false
}

func (c *Cluster) resolveService(host string) *Object {
	return first(c.bucket(Service), func(s *Object) bool {
		if s.Manifest.Path("spec", "clusterIP").ScalarString() == host {
			return true
		}
		names := []string{
			s.Name,
			s.Name + "." + s.Namespace,
			s.Name + "." + s.Namespace + ".svc",
			s.Name + "." + s.Namespace + ".svc.cluster.local",
		}
		return slices.Contains(names, host)
	})
}

func (c *Cluster) serveThroughService(s *Object) (int, string, bool) {
	eps := c.ServiceEndpoints(s)
	if len(eps) == 0 {
		return 503, "no endpoints available for service " + s.Name, true
	}
	return 200, serveBody(eps[0]), true
}

// ServiceEndpoints lists the ready pods a service selects, sorted by
// name like every other listing: which pod answers through a service,
// and the order describe prints endpoints in, must not depend on map
// iteration order.
func (c *Cluster) ServiceEndpoints(s *Object) []*Object {
	sel := s.Manifest.Path("spec", "selector")
	if sel == nil || sel.Kind != yamlx.MapKind || len(sel.Entries) == 0 {
		return nil
	}
	var out []*Object
	for _, p := range c.bucket(Pod) {
		if p.Namespace == s.Namespace && c.PodReady(p) && equalityMapMatches(sel, p.Manifest.Path("metadata", "labels")) {
			out = append(out, p)
		}
	}
	sortByName(out)
	return out
}

// equalityMapMatches reports whether labels satisfy a spec.selector
// mapping: every entry is a key=value requirement.
func equalityMapMatches(sel, labels *yamlx.Node) bool {
	for _, e := range sel.Entries {
		if !(requirement{key: e.Key, op: opIn, value: e.Value.ScalarString()}).matches(labels) {
			return false
		}
	}
	return true
}

// EndpointsString renders a service's ready endpoints as kubectl
// describe shows them: "10.244.0.5:80,10.244.0.6:80".
func (c *Cluster) EndpointsString(s *Object) string {
	targetPort := 0
	if ports := s.Manifest.Path("spec", "ports"); ports != nil && len(ports.Items) > 0 {
		if v, ok := ports.Items[0].Get("targetPort").AsInt(); ok {
			targetPort = int(v)
		} else if v, ok := ports.Items[0].Get("port").AsInt(); ok {
			targetPort = int(v)
		}
	}
	var parts []string
	for _, p := range c.ServiceEndpoints(s) {
		parts = append(parts, fmt.Sprintf("%s:%d", p.PodIP, targetPort))
	}
	if len(parts) == 0 {
		return "<none>"
	}
	return strings.Join(parts, ",")
}

// ServiceURL resolves the externally reachable URL for a service the
// way "minikube service" does. Only NodePort and LoadBalancer services
// are reachable from outside the cluster.
func (c *Cluster) ServiceURL(ns, name string) (string, error) {
	if ns == "" {
		ns = "default"
	}
	s, ok := c.GetObject(Service, ns, name)
	if !ok {
		return "", fmt.Errorf("service %q not found in namespace %q", name, ns)
	}
	spec := s.Manifest.Get("spec")
	typ := spec.Get("type").ScalarString()
	if typ != "NodePort" && typ != "LoadBalancer" {
		return "", fmt.Errorf("service %s/%s has no node port", ns, name)
	}
	ports := spec.Get("ports")
	if ports == nil || len(ports.Items) == 0 {
		return "", fmt.Errorf("service %s/%s exposes no ports", ns, name)
	}
	np, _ := ports.Items[0].Get("nodePort").AsInt()
	return fmt.Sprintf("http://%s:%d", NodeIP, np), nil
}

// serveBody fabricates a response body hinting at the serving image, so
// tests can grep for application banners.
func serveBody(p *Object) string {
	img := p.Manifest.Path("spec", "containers", 0, "image").ScalarString()
	switch {
	case strings.Contains(img, "nginx"):
		return "<html><title>Welcome to nginx!</title></html>"
	case strings.Contains(img, "httpd"):
		return "<html><body><h1>It works!</h1></body></html>"
	case strings.Contains(img, "echo"):
		return "hello from " + p.Name
	default:
		return "OK " + p.Name
	}
}
