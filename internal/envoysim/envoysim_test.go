package envoysim

import (
	"strings"
	"testing"

	"cloudeval/internal/raceflag"
)

const goodConfig = `static_resources:
  listeners:
  - name: listener_0
    address:
      socket_address:
        address: 0.0.0.0
        port_value: 10000
    filter_chains:
    - filters:
      - name: envoy.filters.network.http_connection_manager
        typed_config:
          stat_prefix: ingress_http
          route_config:
            name: local_route
            virtual_hosts:
            - name: local_service
              domains: ["*"]
              routes:
              - match:
                  prefix: "/api"
                route:
                  cluster: api_cluster
              - match:
                  prefix: "/"
                route:
                  cluster: web_cluster
  clusters:
  - name: api_cluster
    type: STATIC
    lb_policy: LEAST_REQUEST
    load_assignment:
      cluster_name: api_cluster
      endpoints:
      - lb_endpoints:
        - endpoint:
            address:
              socket_address:
                address: 127.0.0.1
                port_value: 9001
  - name: web_cluster
    type: STATIC
    load_assignment:
      cluster_name: web_cluster
      endpoints:
      - lb_endpoints:
        - endpoint:
            address:
              socket_address:
                address: 127.0.0.1
                port_value: 9002
`

func TestLoadGoodConfig(t *testing.T) {
	b, err := Load(goodConfig)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Listeners) != 1 || len(b.Clusters) != 2 {
		t.Fatalf("listeners=%d clusters=%d", len(b.Listeners), len(b.Clusters))
	}
	l := b.Listeners[0]
	if l.Port != 10000 || l.Address != "0.0.0.0" {
		t.Errorf("listener addr = %s:%d", l.Address, l.Port)
	}
	if len(l.Routes) != 2 {
		t.Fatalf("routes = %d", len(l.Routes))
	}
	c := b.Clusters[0]
	if c.Name != "api_cluster" || c.LbPolicy != "LEAST_REQUEST" || len(c.Endpoints) != 1 {
		t.Fatalf("api cluster = %+v", c)
	}
	if c.Endpoints[0].Port != 9001 {
		t.Errorf("endpoint port = %d", c.Endpoints[0].Port)
	}
}

func TestRouteMatching(t *testing.T) {
	b, _ := Load(goodConfig)
	if got := b.RouteFor(10000, "/api/users"); got != "api_cluster" {
		t.Errorf("/api/users -> %q", got)
	}
	if got := b.RouteFor(10000, "/index.html"); got != "web_cluster" {
		t.Errorf("/index.html -> %q", got)
	}
	if got := b.RouteFor(9999, "/"); got != "" {
		t.Errorf("unknown port -> %q", got)
	}
}

func TestProbe(t *testing.T) {
	b, _ := Load(goodConfig)
	code, body, ok := b.Probe(10000, "/api/x")
	if !ok || code != 200 || !strings.Contains(body, "api_cluster") {
		t.Errorf("probe = %d %q %v", code, body, ok)
	}
	if _, _, ok := b.Probe(1234, "/"); ok {
		t.Error("probe on unbound port should refuse")
	}
}

func TestProbeEmptyCluster(t *testing.T) {
	cfg := strings.Replace(goodConfig, `      endpoints:
      - lb_endpoints:
        - endpoint:
            address:
              socket_address:
                address: 127.0.0.1
                port_value: 9002`, "      endpoints: []", 1)
	b, err := Load(cfg)
	if err != nil {
		t.Fatal(err)
	}
	code, _, ok := b.Probe(10000, "/")
	if !ok || code != 503 {
		t.Errorf("empty cluster probe = %d %v, want 503", code, ok)
	}
}

func TestValidationErrors(t *testing.T) {
	cases := []struct{ name, mutate string }{
		{"unknown cluster", strings.Replace(goodConfig, "cluster: web_cluster", "cluster: ghost", 1)},
		{"no static_resources", "admin:\n  access_log_path: /dev/null\n"},
		{"listener without address", strings.Replace(goodConfig, "    address:\n      socket_address:\n        address: 0.0.0.0\n        port_value: 10000\n", "", 1)},
		{"cluster without name", strings.Replace(goodConfig, "  - name: api_cluster", "  - type_only: x", 1)},
	}
	for _, c := range cases {
		if _, err := Load(c.mutate); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestUnparsableYAML(t *testing.T) {
	if _, err := Load("static_resources: [unterminated"); err == nil {
		t.Error("broken YAML should fail")
	}
}

func TestRedirectRoutesAreLegal(t *testing.T) {
	cfg := strings.Replace(goodConfig,
		`              - match:
                  prefix: "/api"
                route:
                  cluster: api_cluster`,
		`              - match:
                  prefix: "/api"
                redirect:
                  https_redirect: true`, 1)
	b, err := Load(cfg)
	if err != nil {
		t.Fatalf("redirect route rejected: %v", err)
	}
	// The redirect route is not routable to a cluster, but "/" still is.
	if got := b.RouteFor(10000, "/page"); got != "web_cluster" {
		t.Errorf("fallback route = %q", got)
	}
}

// TestLoadCachedHit: a repeated LoadCached hands back the Bootstrap the
// first one built and allocates nothing.
func TestLoadCachedHit(t *testing.T) {
	b1, err := LoadCached(goodConfig)
	if err != nil {
		t.Fatal(err)
	}
	if b2, _ := LoadCached(goodConfig); b2 != b1 {
		t.Fatal("a repeated LoadCached built a second Bootstrap")
	}
	if raceflag.Enabled {
		return
	}
	if allocs := testing.AllocsPerRun(100, func() { LoadCached(goodConfig) }); allocs != 0 {
		t.Errorf("a bootstrap-cache hit allocates %.0f times, want 0", allocs)
	}
}
