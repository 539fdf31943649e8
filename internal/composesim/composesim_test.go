package composesim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"cloudeval/internal/raceflag"
	"cloudeval/internal/shell"
	"cloudeval/internal/yamlx"
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
	if web.Image != "nginx:1.25" {
		t.Errorf("web parsed wrong: %+v", web)
	}
	if len(web.Ports) != 1 || web.Ports[0] != (PortMapping{Host: 8080, Container: 80}) {
		t.Errorf("ports = %+v", web.Ports)
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
		got, bad := parsePort(spec)
		if bad != accepted || got != want {
			t.Errorf("parsePort(%q) = %+v, %v; want %+v", spec, got, bad, want)
		}
	}
	for _, spec := range []string{"eighty:80", "8080:80/icmp", "0:80", "8080:", "a:b:c:d", "70000"} {
		if _, bad := parsePort(spec); bad == accepted {
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

// TestRefusedFileUnreadAllocatesNothing: docker compose says why it
// refuses a file when its stderr is read, and when nobody reads it, as
// in unittest.Run, the refusal is never worded, so the failing command
// and the Reset that recycles its Env allocate nothing.
func TestRefusedFileUnreadAllocatesNothing(t *testing.T) {
	for _, c := range []struct{ file, stderr string }{
		{"services:\n  web:\n    restart: always\n", `docker compose: bad.yaml: service "web" has no image`},
		{"services:\n  web:\n    image: nginx\n    ports:\n    - \"eighty:80\"\n", `docker compose: bad.yaml: service "web": invalid port mapping "eighty:80"`},
		{"services:\n  web:\n    image: nginx\n    depends_on:\n    - ghost\n", `docker compose: bad.yaml: depends_on references undefined service "ghost"`},
	} {
		e := NewEnv()
		e.Shell.FS["bad.yaml"] = c.file
		const script = "docker compose -f bad.yaml up -d"
		if stdout, stderr, code := run(t, e, script); stdout != "" || stderr != c.stderr+"\n" || code != 1 {
			t.Fatalf("stdout %q, stderr %q, exit %d; want stderr %q, exit 1", stdout, stderr, code, c.stderr)
		}
		if raceflag.Enabled {
			continue
		}
		prog, err := shell.Parse(script)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			e.Reset()
			e.Shell.FS["bad.yaml"] = c.file
			e.Shell.Exec(prog)
		})
		if allocs != 0 {
			t.Errorf("%.0f allocations per refusal of %q, want 0", allocs, c.file)
		}
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

// result is what one script does on an environment: what it printed,
// its exit status and the virtual time it took.
type result struct {
	stdout, stderr string
	code           int
	took           time.Duration
}

func runResult(t *testing.T, e *Env, files map[string]string, script string) result {
	t.Helper()
	for name, content := range files {
		e.Shell.FS[name] = content
	}
	start := e.Now()
	stdout, stderr, code := run(t, e, script)
	return result{stdout, stderr, code, e.Now().Sub(start)}
}

// TestEnvResetIsPristine: one environment runs two different projects
// in turn, reset after each, and each gives what it gives on an
// environment of its own; after a reset nothing of the last project is
// left to see.
func TestEnvResetIsPristine(t *testing.T) {
	const script = `docker compose -f labeled_code.yaml config -q || exit 1
docker compose -f labeled_code.yaml up -d
docker compose ps
docker compose logs
curl -s localhost:8080; curl -s localhost:9000; curl -s http://api:5000/
docker compose down
echo "LEAK=$LEAK"
LEAK=1`
	projects := []string{sampleCompose, `name: shop
services:
  api:
    image: python:3.12
    command: ["python", "app.py"]
    ports:
    - "9000:5000"
    - "5000"
    depends_on: [db, cache]
  db:
    image: postgres:16
  cache:
    image: memcached:1.6
    depends_on: [db]
`}
	e := NewEnv()
	for round := range 2 {
		for i, project := range projects {
			files := map[string]string{"labeled_code.yaml": project}
			got := runResult(t, e, files, script)
			if got.code != 0 || strings.Count(got.stdout, "  Started\n") != strings.Count(project, "image:") || !strings.Contains(got.stdout, " ok\n") {
				t.Fatalf("project %d: %+v", i, got)
			}
			e.Reset()
			if want := runResult(t, NewEnv(), files, script); got != want {
				t.Errorf("round %d, project %d: the reused env gives %+v, a fresh one %+v", round, i, got, want)
			}
			fresh := NewEnv()
			if !e.Now().Equal(fresh.Now()) {
				t.Errorf("virtual clock survived reset: %v vs %v", e.Now(), fresh.Now())
			}
			if len(e.Shell.FS) != 0 || len(e.Shell.Env) != 0 || len(e.Project.Services) != 0 || e.Project.Name != "app" {
				t.Error("shell or project state survived reset")
			}
			if _, _, ok := e.Project.HTTPProbe("localhost", 8080); ok {
				t.Error("containers survived reset")
			}
		}
	}
}

// TestResetKeepsOneChunk bounds what a pooled project keeps. A compose
// file of 3,000 services, each depending on the one before and
// publishing a port, is brought up and listed; Reset keeps one chunk
// of services, depends_on items, ports and containers, none larger
// than yamlx.ChunkCap, and drops the slices and the container map that
// outgrew it. The project then answers as a fresh one does.
func TestResetKeepsOneChunk(t *testing.T) {
	const n = 3000
	var big strings.Builder
	big.WriteString("services:\n")
	for i := range n {
		fmt.Fprintf(&big, "  s%04d:\n    image: nginx\n    ports: [\"%d:80\"]\n", i, 10000+i)
		if i > 0 {
			fmt.Fprintf(&big, "    depends_on: [s%04d]\n", i-1)
		}
	}
	e := NewEnv()
	files := map[string]string{"big.yaml": big.String()}
	if r := runResult(t, e, files, "docker compose -f big.yaml up -d > /dev/null\ndocker compose ps | grep -c Up"); r.code != 0 || r.stdout != "3000\n" {
		t.Fatalf("big project: %+v", r)
	}
	p := e.Project
	held := func() (taken, capacity [4]int) {
		taken[0], capacity[0] = p.services.Held()
		taken[1], capacity[1] = p.deps.Held()
		taken[2], capacity[2] = p.ports.Held()
		taken[3], capacity[3] = p.ctrs.Held()
		return taken, capacity
	}
	if _, capacity := held(); capacity != [4]int{yamlx.ChunkCap, yamlx.ChunkCap, yamlx.ChunkCap, yamlx.ChunkCap} {
		t.Errorf("the project left chunks of %v, want each at the cap %d", capacity, yamlx.ChunkCap)
	}
	if cap(p.byName) <= yamlx.ChunkCap || cap(p.Services) <= yamlx.ChunkCap || cap(e.running) <= yamlx.ChunkCap || len(p.containers) != n {
		t.Fatalf("the project listed %d services into storage of %d, %d and %d, and ran %d containers",
			n, cap(p.byName), cap(p.Services), cap(e.running), len(p.containers))
	}
	before := reflect.ValueOf(p.containers).UnsafePointer()
	e.Reset()
	if taken, capacity := held(); taken != [4]int{} || capacity[0] > yamlx.ChunkCap || capacity[1] > yamlx.ChunkCap || capacity[2] > yamlx.ChunkCap || capacity[3] > yamlx.ChunkCap {
		t.Errorf("Reset left %v taken of chunks of %v", taken, capacity)
	}
	if p.byName != nil || p.next != nil || p.Services != nil || e.running != nil {
		t.Errorf("Reset kept storage of %d, %d, %d and %d services", cap(p.byName), cap(p.next), cap(p.Services), cap(e.running))
	}
	if reflect.ValueOf(p.containers).UnsafePointer() == before {
		t.Error("Reset kept the map that held 3,000 containers")
	}

	const script = "docker compose -f labeled_code.yaml up -d\ndocker compose ps\ncurl -s localhost:8080"
	small := map[string]string{"labeled_code.yaml": sampleCompose}
	if got, want := runResult(t, e, small, script), runResult(t, NewEnv(), small, script); got != want {
		t.Errorf("after Reset the project gives %+v, a fresh one %+v", got, want)
	}
}

// TestProbeAnswersFromRunningContainers: loading another file (`config`)
// does not change what runs. A localhost probe answers from the running
// containers' own services, whose memory the new load must not reuse.
func TestProbeAnswersFromRunningContainers(t *testing.T) {
	e := NewEnv()
	files := map[string]string{
		"a.yaml": "services:\n  web:\n    image: nginx\n    ports: [\"8080:80\"]\n",
		"b.yaml": "services:\n  web:\n    image: nginx\n    ports: [\"9090:80\"]\n",
	}
	r := runResult(t, e, files, "docker compose -f a.yaml up -d > /dev/null\ndocker compose -f b.yaml config -q\ncurl -s localhost:8080\ncurl -s localhost:9090; echo \"exit=$?\"")
	if r.stdout != "web ok\nexit=7\n" {
		t.Errorf("after loading b.yaml over a running a.yaml: %+v", r)
	}
}
