// Package composesim implements an in-memory Docker Compose project
// that stands in for `docker compose` in the CloudEval-YAML evaluation
// platform, the way kubesim stands in for minikube.
//
// The simulator parses a compose file (top-level services mapping with
// image, ports, environment, command, depends_on, restart, volumes),
// starts containers in dependency order against a virtual clock, and
// answers the probes the benchmark's unit tests make: `docker compose
// config/up/ps/logs/down`, plus curl against published host ports and
// service-name DNS. Like kubesim, state is a function of virtual time
// and fully deterministic.
package composesim

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"cloudeval/internal/shell"
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

// Service is one parsed compose service.
type Service struct {
	Name        string
	Image       string
	Command     string
	Restart     string
	DependsOn   []string
	Environment map[string]string
	// Ports are the published "host:container" mappings.
	Ports []PortMapping
	// Volumes are the raw volume strings.
	Volumes []string
}

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
}

// NewProject returns an empty project named "app".
func NewProject() *Project {
	return &Project{Name: "app", containers: make(map[string]*Container), now: epoch}
}

// Reset returns the project to its pristine state while retaining map
// capacity, so environment pools can recycle it.
func (p *Project) Reset() {
	p.Name = "app"
	p.Services = nil
	clear(p.containers)
	p.now = epoch
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
// an image, and ports in "host:container" form.
func (p *Project) Load(src string) error {
	docs, err := yamlx.ParseAllCached(src)
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
	var parsed []*Service
	for _, e := range svcs.Entries {
		s, err := parseService(e.Key, e.Value)
		if err != nil {
			return err
		}
		parsed = append(parsed, s)
	}
	ordered, err := orderServices(parsed)
	if err != nil {
		return err
	}
	p.Services = ordered
	return nil
}

func parseService(name string, n *yamlx.Node) (*Service, error) {
	if n == nil || n.Kind != yamlx.MapKind {
		return nil, fmt.Errorf("service %q must be a mapping", name)
	}
	s := &Service{Name: name, Environment: map[string]string{}}
	if img := n.Get("image"); img != nil && img.IsScalar() {
		s.Image = img.ScalarString()
	}
	if s.Image == "" {
		return nil, fmt.Errorf("service %q has no image", name)
	}
	if r := n.Get("restart"); r != nil {
		s.Restart = r.ScalarString()
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
	if d := n.Get("depends_on"); d != nil && d.Kind == yamlx.SeqKind {
		for _, it := range d.Items {
			s.DependsOn = append(s.DependsOn, it.ScalarString())
		}
	}
	if env := n.Get("environment"); env != nil {
		switch env.Kind {
		case yamlx.MapKind:
			for _, e := range env.Entries {
				s.Environment[e.Key] = e.Value.ScalarString()
			}
		case yamlx.SeqKind:
			for _, it := range env.Items {
				kv := it.ScalarString()
				if k, v, ok := strings.Cut(kv, "="); ok {
					s.Environment[k] = v
				}
			}
		}
	}
	if ports := n.Get("ports"); ports != nil && ports.Kind == yamlx.SeqKind {
		for _, it := range ports.Items {
			pm, err := parsePort(it.ScalarString())
			if err != nil {
				return nil, fmt.Errorf("service %q: %v", name, err)
			}
			s.Ports = append(s.Ports, pm)
		}
	}
	if vols := n.Get("volumes"); vols != nil && vols.Kind == yamlx.SeqKind {
		for _, it := range vols.Items {
			s.Volumes = append(s.Volumes, it.ScalarString())
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
	parts := strings.Split(s, ":")
	switch len(parts) {
	case 1:
		c, ok := port(parts[0])
		if !ok {
			return PortMapping{}, fmt.Errorf("invalid port mapping %q", spec)
		}
		return PortMapping{Container: c}, nil
	case 2:
		h, ok1 := port(parts[0])
		c, ok2 := port(parts[1])
		if !ok1 || !ok2 {
			return PortMapping{}, fmt.Errorf("invalid port mapping %q", spec)
		}
		return PortMapping{Host: h, Container: c}, nil
	case 3:
		// ip:host:container — the bind address is accepted and ignored
		// (the simulated host has one interface).
		h, ok1 := port(parts[1])
		c, ok2 := port(parts[2])
		if !ok1 || !ok2 {
			return PortMapping{}, fmt.Errorf("invalid port mapping %q", spec)
		}
		return PortMapping{Host: h, Container: c}, nil
	}
	return PortMapping{}, fmt.Errorf("invalid port mapping %q", spec)
}

// orderServices sorts services into a deterministic start order:
// dependencies before dependents, ties broken by name.
func orderServices(in []*Service) ([]*Service, error) {
	byName := make(map[string]*Service, len(in))
	for _, s := range in {
		byName[s.Name] = s
	}
	names := make([]string, 0, len(in))
	for _, s := range in {
		names = append(names, s.Name)
	}
	sort.Strings(names)
	var out []*Service
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(name string) error
	visit = func(name string) error {
		s, ok := byName[name]
		if !ok {
			return fmt.Errorf("depends_on references undefined service %q", name)
		}
		switch state[name] {
		case 1:
			return fmt.Errorf("dependency cycle through service %q", name)
		case 2:
			return nil
		}
		state[name] = 1
		deps := append([]string(nil), s.DependsOn...)
		sort.Strings(deps)
		for _, d := range deps {
			if err := visit(d); err != nil {
				return err
			}
		}
		state[name] = 2
		out = append(out, s)
		return nil
	}
	for _, n := range names {
		if err := visit(n); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Up starts every loaded service in dependency order, advancing the
// virtual clock StartDelay per container.
func (p *Project) Up() []*Container {
	var started []*Container
	for _, s := range p.Services {
		p.AdvanceTime(StartDelay)
		c := &Container{
			Name:      fmt.Sprintf("%s-%s-1", p.Name, s.Name),
			Service:   s,
			StartedAt: p.now,
		}
		p.containers[s.Name] = c
		started = append(started, c)
	}
	return started
}

// Down removes every container.
func (p *Project) Down() { clear(p.containers) }

// Running lists containers in service start order.
func (p *Project) Running() []*Container {
	var out []*Container
	for _, s := range p.Services {
		if c, ok := p.containers[s.Name]; ok {
			out = append(out, c)
		}
	}
	return out
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
		for _, c := range p.Running() {
			for _, pm := range c.Service.Ports {
				if pm.Host != 0 && pm.Host == port {
					return 200, fmt.Sprintf("%s ok", c.Service.Name), true
				}
			}
		}
		return 0, "", false
	}
	if c, ok := p.containers[host]; ok {
		for _, pm := range c.Service.Ports {
			if pm.Container == port {
				return 200, fmt.Sprintf("%s ok", c.Service.Name), true
			}
		}
	}
	return 0, "", false
}

// Logs renders deterministic startup logs for one container, shaped by
// its image the way unit tests grep for them.
func (p *Project) Logs(c *Container) string {
	var b strings.Builder
	prefix := c.Name
	emit := func(line string) { fmt.Fprintf(&b, "%s  | %s\n", prefix, line) }
	img := c.Service.Image
	switch {
	case strings.HasPrefix(img, "redis"):
		emit("* monotonic clock: POSIX clock_gettime")
		emit("* Ready to accept connections tcp")
	case strings.HasPrefix(img, "nginx"):
		emit("/docker-entrypoint.sh: Configuration complete; ready for start up")
		emit("start worker processes")
	case strings.HasPrefix(img, "httpd"):
		emit("AH00094: Command line: 'httpd -D FOREGROUND'")
		emit("resuming normal operations")
	case strings.HasPrefix(img, "memcached"):
		emit("server listening")
	case strings.HasPrefix(img, "postgres"), strings.HasPrefix(img, "mysql"), strings.HasPrefix(img, "mariadb"):
		emit("database system is ready to accept connections")
	default:
		emit(fmt.Sprintf("%s started", c.Service.Name))
	}
	if c.Service.Command != "" {
		emit(fmt.Sprintf("exec: %s", c.Service.Command))
	}
	return b.String()
}

// Env is the execution environment for one compose-family unit test: a
// fresh project and the shell interpreter wired to it. It satisfies
// scenario.Env.
type Env struct {
	Project *Project
	Shell   *shell.Interp
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
}
