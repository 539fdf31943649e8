// Package composesim implements an in-memory Docker Compose project
// that stands in for `docker compose` in the CloudEval-YAML evaluation
// platform, the way kubesim stands in for minikube.
//
// The simulator parses a compose file (top-level services mapping with
// image, ports, command and depends_on; other keys are accepted and
// not read),
// starts containers in dependency order against a virtual clock, and
// answers the probes the benchmark's unit tests make: `docker compose
// config/up/ps/logs/down`, plus curl against published host ports and
// service-name DNS. Like kubesim, state is a function of virtual time
// and fully deterministic.
package composesim

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"cloudeval/internal/shell"
	"cloudeval/internal/stage"
	"cloudeval/internal/yamlx"
)

// StartDelay is the virtual time one container takes to start, charged
// against the project clock by `up` (compose pulls and starts are
// seconds-scale in the real world; here they cost nothing in real
// time).
const StartDelay = 2 * time.Second

// epoch is the fixed virtual time every fresh (or reset) project
// starts at, so evaluations are deterministic.
var epoch = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)

// Service is one parsed compose service. Its lists live in its
// project's chunks, like the Service itself: they are good until the
// project's next Reset.
type Service struct {
	Name      string
	Image     string
	Command   string
	DependsOn []string
	// Ports are the published "host:container" mappings.
	Ports []PortMapping

	mark uint8 // Load's depth-first walk: unvisited, visiting or done
}

// The marks of Load's walk over depends_on.
const (
	unvisited uint8 = iota
	visiting
	done
)

// PortMapping is one port entry. Host 0 means the port is not
// published to the host (the container-port-only short form, which
// real Compose binds to an ephemeral host port): it is reachable over
// the project network by service name, never via localhost.
type PortMapping struct {
	Host      int
	Container int
}

// Container is one running instance of a service.
type Container struct {
	Name      string // <project>-<service>-1
	Service   *Service
	StartedAt time.Time
}

// Project is the simulated compose project: parsed services plus the
// containers `up` created, on a virtual clock.
type Project struct {
	Name       string
	Services   []*Service // dependency order (topological, then by name)
	containers map[string]*Container
	now        time.Time

	// What Load and Up build, reused from one execution to the next:
	// the services, their depends_on lists and ports, and the
	// containers, in chunks; byName (the services sorted by name) and
	// next (their start order, built while Load walks them) as
	// scratch. Reset rewinds the chunks, which keep one chunk each, and
	// drops a slice or the container map once it outgrows
	// yamlx.ChunkCap, the bound the chunks keep.
	services yamlx.Chunks[Service]
	deps     yamlx.Chunks[string]
	ports    yamlx.Chunks[PortMapping]
	ctrs     yamlx.Chunks[Container]
	byName   []*Service
	next     []*Service
}

// NewProject returns an empty project named "app".
func NewProject() *Project {
	return &Project{Name: "app", containers: make(map[string]*Container), now: epoch}
}

// Reset returns the project to its pristine state while keeping its
// memory within the bound above, so environment pools can recycle it.
// Every Service and Container the project handed out before is reused
// from here on, so none may be kept past it.
func (p *Project) Reset() {
	p.Name = "app"
	p.Services = reuse(p.Services)
	p.Down()
	p.now = epoch
	p.services.Rewind()
	p.deps.Rewind()
	p.ports.Rewind()
	p.ctrs.Rewind()
	p.byName = reuse(p.byName)
	p.next = reuse(p.next)
}

// reuse returns s emptied for the next execution, or nil once it has
// outgrown yamlx.ChunkCap.
func reuse(s []*Service) []*Service {
	if cap(s) > yamlx.ChunkCap {
		return nil
	}
	clear(s[:cap(s)])
	return s[:0]
}

// Now returns the project's virtual time.
func (p *Project) Now() time.Time { return p.now }

// AdvanceTime moves the virtual clock forward.
func (p *Project) AdvanceTime(d time.Duration) {
	if d > 0 {
		p.now = p.now.Add(d)
	}
}

// Load parses a compose file and installs its services (without
// starting anything). It validates the schema the benchmark's corpus
// relies on: a top-level `services` mapping of service maps, each with
// an image, and ports in "host:container" form. A file it refuses
// leaves the services loaded before in place.
func (p *Project) Load(src string) error {
	stage.Set(stage.Parse)
	docs, err := yamlx.ParseAllCached(src)
	stage.Set(stage.Apply)
	if err != nil {
		return fmt.Errorf("parsing compose file: %v", err)
	}
	var root *yamlx.Node
	for _, d := range docs {
		if d != nil && d.Kind != yamlx.NullKind {
			if root != nil {
				return fmt.Errorf("compose file must be a single document")
			}
			root = d
		}
	}
	if root == nil || root.Kind != yamlx.MapKind {
		return fmt.Errorf("top-level object must be a mapping")
	}
	svcs := root.Get("services")
	if svcs == nil || svcs.Kind != yamlx.MapKind || len(svcs.Entries) == 0 {
		return fmt.Errorf("missing or empty `services` mapping")
	}
	if n := root.Get("name"); n != nil && n.ScalarString() != "" {
		p.Name = n.ScalarString()
	}
	p.byName = p.byName[:0]
	for _, e := range svcs.Entries {
		s, err := p.parseService(e.Key, e.Value)
		if err != nil {
			return err
		}
		p.byName = append(p.byName, s)
	}
	// Start order: dependencies before dependents, ties broken by name.
	slices.SortFunc(p.byName, func(a, b *Service) int { return strings.Compare(a.Name, b.Name) })
	p.next = p.next[:0]
	for _, s := range p.byName {
		if err := p.visit(s); err != nil {
			return err
		}
	}
	p.Services, p.next = p.next, p.Services[:0]
	return nil
}

func (p *Project) parseService(name string, n *yamlx.Node) (*Service, error) {
	if n == nil || n.Kind != yamlx.MapKind {
		return nil, fmt.Errorf("service %q must be a mapping", name)
	}
	s := &p.services.Take(1)[0]
	s.Name = name
	if img := n.Get("image"); img != nil && img.IsScalar() {
		s.Image = img.ScalarString()
	}
	if s.Image == "" {
		return nil, fmt.Errorf("service %q has no image", name)
	}
	if c := n.Get("command"); c != nil {
		if c.Kind == yamlx.SeqKind {
			var parts []string
			for _, it := range c.Items {
				parts = append(parts, it.ScalarString())
			}
			s.Command = strings.Join(parts, " ")
		} else {
			s.Command = c.ScalarString()
		}
	}
	if d := n.Get("depends_on"); d != nil && d.Kind == yamlx.SeqKind && len(d.Items) > 0 {
		s.DependsOn = p.deps.Take(len(d.Items))
		for i, it := range d.Items {
			s.DependsOn[i] = it.ScalarString()
		}
	}
	if ports := n.Get("ports"); ports != nil && ports.Kind == yamlx.SeqKind && len(ports.Items) > 0 {
		s.Ports = p.ports.Take(len(ports.Items))
		for i, it := range ports.Items {
			pm, err := parsePort(it.ScalarString())
			if err != nil {
				return nil, fmt.Errorf("service %q: %v", name, err)
			}
			s.Ports[i] = pm
		}
	}
	return s, nil
}

// parsePort parses the Compose short port syntax:
// [ip:]host:container[/protocol]. A bare container port ("80") is
// valid Compose but publishes on an ephemeral host port, modeled here
// as unpublished (Host 0).
func parsePort(spec string) (PortMapping, error) {
	s := strings.TrimSpace(spec)
	if i := strings.IndexByte(s, '/'); i >= 0 {
		proto := s[i+1:]
		if proto != "tcp" && proto != "udp" {
			return PortMapping{}, fmt.Errorf("invalid port protocol in %q", spec)
		}
		s = s[:i]
	}
	port := func(p string) (int, bool) {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		return n, err == nil && n > 0 && n < 65536
	}
	switch strings.Count(s, ":") {
	case 0:
		if c, ok := port(s); ok {
			return PortMapping{Container: c}, nil
		}
	case 2:
		// ip:host:container — the bind address is accepted and ignored
		// (the simulated host has one interface).
		s = s[strings.IndexByte(s, ':')+1:]
		fallthrough
	case 1:
		host, ctr, _ := strings.Cut(s, ":")
		h, ok1 := port(host)
		c, ok2 := port(ctr)
		if ok1 && ok2 {
			return PortMapping{Host: h, Container: c}, nil
		}
	}
	return PortMapping{}, fmt.Errorf("invalid port mapping %q", spec)
}

// visit appends s to p.next after the services it depends on, each
// found in p.byName, in name order.
func (p *Project) visit(s *Service) error {
	switch s.mark {
	case visiting:
		return fmt.Errorf("dependency cycle through service %q", s.Name)
	case done:
		return nil
	}
	s.mark = visiting
	slices.Sort(s.DependsOn)
	for _, name := range s.DependsOn {
		i, ok := slices.BinarySearchFunc(p.byName, name, func(s *Service, name string) int { return strings.Compare(s.Name, name) })
		if !ok {
			return fmt.Errorf("depends_on references undefined service %q", name)
		}
		if err := p.visit(p.byName[i]); err != nil {
			return err
		}
	}
	s.mark = done
	p.next = append(p.next, s)
	return nil
}

// Up starts every loaded service in dependency order, advancing the
// virtual clock StartDelay per container.
func (p *Project) Up() {
	for _, s := range p.Services {
		p.AdvanceTime(StartDelay)
		c := &p.ctrs.Take(1)[0]
		*c = Container{Name: p.Name + "-" + s.Name + "-1", Service: s, StartedAt: p.now}
		p.containers[s.Name] = c
	}
}

// Down removes every container. The map is kept for the next up unless
// it has grown past yamlx.ChunkCap.
func (p *Project) Down() {
	if len(p.containers) > yamlx.ChunkCap {
		p.containers = make(map[string]*Container)
	} else {
		clear(p.containers)
	}
}

// Running appends the running containers, in service start order, to
// dst and returns the extended slice.
func (p *Project) Running(dst []*Container) []*Container {
	for _, s := range p.Services {
		if c, ok := p.containers[s.Name]; ok {
			dst = append(dst, c)
		}
	}
	return dst
}

// ContainerFor returns the running container of a service.
func (p *Project) ContainerFor(service string) (*Container, bool) {
	c, ok := p.containers[service]
	return c, ok
}

// HTTPProbe answers a GET against the project: localhost targets
// resolve through published host ports; service-name targets resolve
// through container ports, like a client attached to the project
// network.
func (p *Project) HTTPProbe(host string, port int) (code int, body string, ok bool) {
	if host == "localhost" || host == "127.0.0.1" || host == "0.0.0.0" {
		for _, s := range p.Services {
			c, ok := p.containers[s.Name]
			if !ok {
				continue
			}
			for _, pm := range c.Service.Ports {
				if pm.Host != 0 && pm.Host == port {
					return 200, c.Service.Name + " ok", true
				}
			}
		}
		return 0, "", false
	}
	if c, ok := p.containers[host]; ok {
		for _, pm := range c.Service.Ports {
			if pm.Container == port {
				return 200, c.Service.Name + " ok", true
			}
		}
	}
	return 0, "", false
}

// writeLogs writes deterministic startup logs for one container,
// shaped by its image the way unit tests grep for them.
func writeLogs(out *shell.Stream, c *Container) {
	line := func(text ...string) {
		out.WriteStrings(c.Name, "  | ")
		out.WriteStrings(text...)
		out.WriteByte('\n')
	}
	img := c.Service.Image
	switch {
	case strings.HasPrefix(img, "redis"):
		line("* monotonic clock: POSIX clock_gettime")
		line("* Ready to accept connections tcp")
	case strings.HasPrefix(img, "nginx"):
		line("/docker-entrypoint.sh: Configuration complete; ready for start up")
		line("start worker processes")
	case strings.HasPrefix(img, "httpd"):
		line("AH00094: Command line: 'httpd -D FOREGROUND'")
		line("resuming normal operations")
	case strings.HasPrefix(img, "memcached"):
		line("server listening")
	case strings.HasPrefix(img, "postgres"), strings.HasPrefix(img, "mysql"), strings.HasPrefix(img, "mariadb"):
		line("database system is ready to accept connections")
	default:
		line(c.Service.Name, " started")
	}
	if c.Service.Command != "" {
		line("exec: ", c.Service.Command)
	}
}

// Env is the execution environment for one compose-family unit test: a
// fresh project and the shell interpreter wired to it. It satisfies
// scenario.Env.
type Env struct {
	Project *Project
	Shell   *shell.Interp

	// running is the storage ps, logs and down list containers into,
	// dropped by Reset once it outgrows yamlx.ChunkCap.
	running []*Container
}

// NewEnv builds a fresh environment with the compose tools registered.
func NewEnv() *Env {
	e := &Env{Project: NewProject(), Shell: shell.New()}
	e.Shell.AdvanceClock = e.Project.AdvanceTime
	e.Shell.Builtins["docker"] = e.docker
	e.Shell.Builtins["curl"] = shell.Curl(func(host string, port int, _ string) (int, string, bool) {
		return e.Project.HTTPProbe(host, port)
	})
	return e
}

// Interp returns the environment's shell.
func (e *Env) Interp() *shell.Interp { return e.Shell }

// Now returns the environment's virtual time.
func (e *Env) Now() time.Time { return e.Project.Now() }

// Reset wipes the environment for pool recycling; builtin bindings
// survive, mirroring k8scmd.Env.Reset.
func (e *Env) Reset() {
	e.Project.Reset()
	e.Shell.Reset()
	if cap(e.running) > yamlx.ChunkCap {
		e.running = nil
	}
}
