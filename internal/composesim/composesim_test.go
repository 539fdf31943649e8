package composesim

import (
	"strings"
	"testing"

	"cloudeval/internal/shell"
)

const sampleCompose = `services:
  web:
    image: nginx:1.25
    restart: always
    ports:
    - "8080:80"
    depends_on:
    - cache
    environment:
      CACHE_URL: redis://cache:6379
  cache:
    image: redis:7
`

func TestLoadParsesServices(t *testing.T) {
	p := NewProject()
	if err := p.Load(sampleCompose); err != nil {
		t.Fatalf("load: %v", err)
	}
	if len(p.Services) != 2 {
		t.Fatalf("services = %d", len(p.Services))
	}
	// Dependency order: cache starts before web.
	if p.Services[0].Name != "cache" || p.Services[1].Name != "web" {
		t.Errorf("start order = %s, %s", p.Services[0].Name, p.Services[1].Name)
	}
	web := p.Services[1]
	if web.Image != "nginx:1.25" || web.Restart != "always" {
		t.Errorf("web parsed wrong: %+v", web)
	}
	if len(web.Ports) != 1 || web.Ports[0] != (PortMapping{Host: 8080, Container: 80}) {
		t.Errorf("ports = %+v", web.Ports)
	}
	if web.Environment["CACHE_URL"] != "redis://cache:6379" {
		t.Errorf("environment = %+v", web.Environment)
	}
}

func TestParsePortForms(t *testing.T) {
	valid := map[string]PortMapping{
		"8080:80":           {Host: 8080, Container: 80},
		"8080:80/tcp":       {Host: 8080, Container: 80},
		"53:53/udp":         {Host: 53, Container: 53},
		"127.0.0.1:8080:80": {Host: 8080, Container: 80},
		"80":                {Host: 0, Container: 80},
		" 8080:80 ":         {Host: 8080, Container: 80},
	}
	for spec, want := range valid {
		got, err := parsePort(spec)
		if err != nil || got != want {
			t.Errorf("parsePort(%q) = %+v, %v; want %+v", spec, got, err, want)
		}
	}
	for _, spec := range []string{"eighty:80", "8080:80/icmp", "0:80", "8080:", "a:b:c:d", "70000"} {
		if _, err := parsePort(spec); err == nil {
			t.Errorf("parsePort(%q) accepted invalid spec", spec)
		}
	}
}

// TestContainerOnlyPortNotPublished: the "80" short form publishes on
// an ephemeral host port in real Compose, so localhost probes on the
// container port must fail while service-DNS probes succeed — an
// answer that skips the host mapping must not pass a published-port
// unit test.
func TestContainerOnlyPortNotPublished(t *testing.T) {
	p := NewProject()
	if err := p.Load("services:\n  web:\n    image: nginx:latest\n    ports:\n    - \"80\"\n"); err != nil {
		t.Fatal(err)
	}
	p.Up()
	if _, _, ok := p.HTTPProbe("localhost", 80); ok {
		t.Error("container-only port answered on localhost")
	}
	if code, _, ok := p.HTTPProbe("web", 80); !ok || code != 200 {
		t.Error("container-only port unreachable over the project network")
	}
}

func TestLoadRejectsInvalid(t *testing.T) {
	cases := map[string]string{
		"no-services":    "volumes:\n  data: {}\n",
		"empty-services": "services: {}\n",
		"no-image":       "services:\n  web:\n    restart: always\n",
		"bad-port":       "services:\n  web:\n    image: nginx\n    ports:\n    - \"eighty:80\"\n",
		"unknown-dep":    "services:\n  web:\n    image: nginx\n    depends_on:\n    - ghost\n",
		"dep-cycle":      "services:\n  a:\n    image: nginx\n    depends_on:\n    - b\n  b:\n    image: nginx\n    depends_on:\n    - a\n",
		"not-yaml":       "services: [unterminated\n",
	}
	for name, src := range cases {
		if err := NewProject().Load(src); err == nil {
			t.Errorf("%s: load accepted invalid file", name)
		}
	}
}

func TestUpProbeAndVirtualTime(t *testing.T) {
	p := NewProject()
	if err := p.Load(sampleCompose); err != nil {
		t.Fatal(err)
	}
	start := p.Now()
	p.Up()
	if got := p.Now().Sub(start); got != 2*StartDelay {
		t.Errorf("up consumed %v virtual time, want %v", got, 2*StartDelay)
	}
	if code, body, ok := p.HTTPProbe("localhost", 8080); !ok || code != 200 || !strings.Contains(body, "web ok") {
		t.Errorf("published port probe = %d %q %v", code, body, ok)
	}
	// Service-name DNS resolves container ports.
	if code, _, ok := p.HTTPProbe("cache", 6379); ok || code != 0 {
		t.Error("cache publishes no ports and declares none; probe must fail")
	}
	if _, _, ok := p.HTTPProbe("localhost", 9999); ok {
		t.Error("unpublished port answered")
	}
	p.Down()
	if _, _, ok := p.HTTPProbe("localhost", 8080); ok {
		t.Error("probe answered after down")
	}
}

// run parses script and executes it on e, its stderr gathered command
// by command through the shell's Watch hook.
func run(t *testing.T, e *Env, script string) (stdout, stderr string, code int) {
	t.Helper()
	prog, err := shell.Parse(script)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var errOut strings.Builder
	e.Shell.Watch = func(_ int, _, s string, _ int) { errOut.WriteString(s) }
	defer func() { e.Shell.Watch = nil }()
	stdout, code = e.Shell.Exec(prog)
	return stdout, errOut.String(), code
}

func TestEnvScriptEndToEnd(t *testing.T) {
	e := NewEnv()
	e.Shell.FS["labeled_code.yaml"] = sampleCompose
	stdout, stderr, code := run(t, e, `docker compose -f labeled_code.yaml config -q || exit 1
docker compose -f labeled_code.yaml up -d
docker compose ps | grep web | grep -q Up || exit 1
docker compose logs cache | grep -q 'Ready to accept connections' || exit 1
status=$(curl -s -o /dev/null -w "%{http_code}" http://localhost:8080/)
echo status=$status`)
	if code != 0 || !strings.Contains(stdout, "status=200") {
		t.Fatalf("script failed (exit %d):\n%s%s", code, stdout, stderr)
	}
}

// TestLogsFollowFlag: `-f` after the verb is the verb's own flag
// (`logs --follow`), never the global --file — the service argument
// must still select a single service's logs.
func TestLogsFollowFlag(t *testing.T) {
	e := NewEnv()
	e.Shell.FS["labeled_code.yaml"] = sampleCompose
	run(t, e, "docker compose -f labeled_code.yaml up -d")
	stdout, stderr, code := run(t, e, "docker compose logs -f cache")
	if code != 0 || !strings.Contains(stdout, "Ready to accept connections") {
		t.Fatalf("logs -f cache failed (exit %d):\n%s%s", code, stdout, stderr)
	}
	if strings.Contains(stdout, "app-web-1") {
		t.Errorf("logs -f cache leaked other services' logs:\n%s", stdout)
	}
}

func TestEnvConfigEchoesCanonicalYAML(t *testing.T) {
	e := NewEnv()
	e.Shell.FS["labeled_code.yaml"] = sampleCompose
	stdout, _, _ := run(t, e, "docker compose -f labeled_code.yaml config")
	for _, want := range []string{"image: nginx:1.25", "restart: always", "8080:80", "CACHE_URL: redis://cache:6379"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("config output missing %q:\n%s", want, stdout)
		}
	}
}

func TestEnvResetIsPristine(t *testing.T) {
	e := NewEnv()
	e.Shell.FS["labeled_code.yaml"] = sampleCompose
	run(t, e, "docker compose -f labeled_code.yaml up -d\nLEAK=1")
	e.Reset()
	fresh := NewEnv()
	if !e.Now().Equal(fresh.Now()) {
		t.Errorf("virtual clock survived reset: %v vs %v", e.Now(), fresh.Now())
	}
	if len(e.Shell.FS) != 0 || len(e.Shell.Env) != 0 {
		t.Error("shell state survived reset")
	}
	if _, _, ok := e.Project.HTTPProbe("localhost", 8080); ok {
		t.Error("containers survived reset")
	}
}
