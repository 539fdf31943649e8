// Package envoysim validates Envoy bootstrap configurations and
// simulates their data plane, standing in for the Envoy-in-Docker
// backend of the CloudEval-YAML evaluation platform.
//
// The simulator understands the static_resources subset the dataset's
// Envoy problems exercise: listeners with socket addresses and HTTP
// connection managers, route configurations with virtual hosts and
// prefix routes, and clusters with static load assignments. Probe
// answers "would an HTTP request to this listener reach a healthy
// cluster", which is what the unit tests assert.
package envoysim

import (
	"crypto/sha256"
	"fmt"
	"strings"

	"cloudeval/internal/memo"
	"cloudeval/internal/yamlx"
)

// Bootstrap is a validated Envoy configuration.
type Bootstrap struct {
	Listeners []Listener
	Clusters  []Cluster
}

// Listener is one configured listener.
type Listener struct {
	Name    string
	Address string
	Port    int
	Routes  []Route
}

// Route maps a path prefix (or exact path) to a cluster.
type Route struct {
	Prefix  string
	Path    string // exact match when non-empty
	Cluster string
	Domains []string
}

// Cluster is an upstream cluster.
type Cluster struct {
	Name      string
	Type      string
	Endpoints []Endpoint
	LbPolicy  string
}

// Endpoint is one upstream address.
type Endpoint struct {
	Address string
	Port    int
}

// LoadCached is Load through a content-addressed cache: each distinct
// bootstrap text is parsed and validated once per process, and the
// resulting Bootstrap is shared. This is safe because a Bootstrap is
// immutable after Load — Probe and RouteFor only read — and
// it matters because every "envoy -c file" in a unit-test script
// re-loads the same config on the cold evaluation path.
func LoadCached(src string) (*Bootstrap, error) {
	o := bootCache.Do(memo.Digest(src), func() *bootOutcome {
		boot, err := Load(src)
		return &bootOutcome{boot: boot, err: err}
	})
	return o.boot, o.err
}

type bootOutcome struct {
	boot *Bootstrap
	err  error
}

// Bootstrap texts come from answer files, so the cache is capped like
// the yamlx document cache.
var bootCache = memo.New[[sha256.Size]byte, *bootOutcome](1 << 14)

// Load parses and validates a bootstrap config from YAML text.
func Load(src string) (*Bootstrap, error) {
	doc, err := yamlx.ParseCachedString(src)
	if err != nil {
		return nil, fmt.Errorf("envoy: cannot parse configuration: %w", err)
	}
	return FromNode(doc)
}

// FromNode validates a parsed bootstrap config.
func FromNode(doc *yamlx.Node) (*Bootstrap, error) {
	static := doc.Get("static_resources")
	if static == nil {
		return nil, fmt.Errorf("envoy: error initializing configuration: static_resources is required")
	}
	b := &Bootstrap{}
	clusters := static.Get("clusters")
	if clusters != nil && clusters.Kind == yamlx.SeqKind {
		for i, cl := range clusters.Items {
			c, err := parseCluster(cl, i)
			if err != nil {
				return nil, err
			}
			b.Clusters = append(b.Clusters, c)
		}
	}
	listeners := static.Get("listeners")
	if listeners != nil && listeners.Kind == yamlx.SeqKind {
		for i, ls := range listeners.Items {
			l, err := parseListener(ls, i)
			if err != nil {
				return nil, err
			}
			b.Listeners = append(b.Listeners, l)
		}
	}
	if len(b.Listeners) == 0 && len(b.Clusters) == 0 {
		return nil, fmt.Errorf("envoy: static_resources declares no listeners or clusters")
	}
	// Every route must target a declared cluster.
	known := map[string]bool{}
	for _, c := range b.Clusters {
		known[c.Name] = true
	}
	for _, l := range b.Listeners {
		for _, r := range l.Routes {
			if !known[r.Cluster] {
				return nil, fmt.Errorf("envoy: route_config references unknown cluster %q", r.Cluster)
			}
		}
	}
	return b, nil
}

func parseCluster(cl *yamlx.Node, i int) (Cluster, error) {
	name := cl.Get("name").ScalarString()
	if name == "" {
		return Cluster{}, fmt.Errorf("envoy: clusters[%d]: name is required", i)
	}
	c := Cluster{
		Name:     name,
		Type:     cl.Get("type").ScalarString(),
		LbPolicy: cl.Get("lb_policy").ScalarString(),
	}
	la := cl.Get("load_assignment")
	if la != nil {
		eps := la.Get("endpoints")
		if eps != nil && eps.Kind == yamlx.SeqKind {
			for _, group := range eps.Items {
				lbs := group.Get("lb_endpoints")
				if lbs == nil {
					continue
				}
				for _, lb := range lbs.Items {
					sa := lb.Path("endpoint", "address", "socket_address")
					if sa == nil {
						return Cluster{}, fmt.Errorf("envoy: cluster %q: lb_endpoint missing socket_address", name)
					}
					port, _ := sa.Get("port_value").AsInt()
					c.Endpoints = append(c.Endpoints, Endpoint{
						Address: sa.Get("address").ScalarString(),
						Port:    int(port),
					})
				}
			}
		}
	}
	return c, nil
}

func parseListener(ls *yamlx.Node, i int) (Listener, error) {
	l := Listener{Name: ls.Get("name").ScalarString()}
	sa := ls.Path("address", "socket_address")
	if sa == nil {
		return Listener{}, fmt.Errorf("envoy: listeners[%d]: address.socket_address is required", i)
	}
	l.Address = sa.Get("address").ScalarString()
	port, ok := sa.Get("port_value").AsInt()
	if !ok {
		return Listener{}, fmt.Errorf("envoy: listeners[%d]: socket_address.port_value is required", i)
	}
	l.Port = int(port)
	chains := ls.Get("filter_chains")
	if chains == nil || chains.Kind != yamlx.SeqKind {
		return l, nil // a TCP proxy listener without HTTP routes is fine
	}
	for _, chain := range chains.Items {
		filters := chain.Get("filters")
		if filters == nil {
			continue
		}
		for _, f := range filters.Items {
			cfg := f.Get("typed_config")
			if cfg == nil {
				cfg = f.Get("config")
			}
			if cfg == nil {
				continue
			}
			rc := cfg.Get("route_config")
			if rc == nil {
				continue
			}
			routes, err := parseRouteConfig(rc)
			if err != nil {
				return Listener{}, fmt.Errorf("envoy: listener %q: %w", l.Name, err)
			}
			l.Routes = append(l.Routes, routes...)
		}
	}
	return l, nil
}

func parseRouteConfig(rc *yamlx.Node) ([]Route, error) {
	var out []Route
	vhosts := rc.Get("virtual_hosts")
	if vhosts == nil || vhosts.Kind != yamlx.SeqKind {
		return nil, fmt.Errorf("route_config.virtual_hosts is required")
	}
	for _, vh := range vhosts.Items {
		var domains []string
		if d := vh.Get("domains"); d != nil && d.Kind == yamlx.SeqKind {
			for _, it := range d.Items {
				domains = append(domains, it.ScalarString())
			}
		}
		routes := vh.Get("routes")
		if routes == nil {
			continue
		}
		for _, rt := range routes.Items {
			m := rt.Get("match")
			r := Route{Domains: domains}
			if m != nil {
				r.Prefix = m.Get("prefix").ScalarString()
				r.Path = m.Get("path").ScalarString()
			}
			action := rt.Get("route")
			if action == nil {
				if rt.Get("redirect") != nil || rt.Get("direct_response") != nil {
					continue // non-cluster actions are valid, just not routable here
				}
				return nil, fmt.Errorf("route without route action")
			}
			r.Cluster = action.Get("cluster").ScalarString()
			if r.Cluster == "" {
				return nil, fmt.Errorf("route action missing cluster")
			}
			out = append(out, r)
		}
	}
	return out, nil
}

// RouteFor resolves the cluster an HTTP request to path on the given
// listener port would reach, or "" when nothing matches.
func (b *Bootstrap) RouteFor(port int, path string) string {
	for _, l := range b.Listeners {
		if l.Port != port {
			continue
		}
		for _, r := range l.Routes {
			if r.Path != "" && r.Path == path {
				return r.Cluster
			}
			if r.Prefix != "" && strings.HasPrefix(path, r.Prefix) {
				return r.Cluster
			}
		}
	}
	return ""
}

// Probe simulates an HTTP GET against a listener: 200 when a route
// matches and the target cluster has endpoints, 503 when the cluster is
// empty, 404 when no route matches, and ok=false when no listener
// listens on the port.
func (b *Bootstrap) Probe(port int, path string) (code int, body string, ok bool) {
	listening := false
	for _, l := range b.Listeners {
		if l.Port == port {
			listening = true
		}
	}
	if !listening {
		return 0, "", false
	}
	cluster := b.RouteFor(port, path)
	if cluster == "" {
		return 404, "no route matched", true
	}
	for _, c := range b.Clusters {
		if c.Name == cluster {
			if len(c.Endpoints) == 0 {
				return 503, "no healthy upstream", true
			}
			return 200, "upstream response via " + cluster, true
		}
	}
	return 503, "unknown cluster", true
}
