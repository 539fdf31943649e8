package composesim

import (
	"fmt"
	"strconv"
	"strings"

	"cloudeval/internal/shell"
	"cloudeval/internal/yamlx"
)

// docker implements the `docker compose` verbs the benchmark's compose
// unit tests use (config, up, ps, logs, down, version) plus the classic
// `docker ps` form, all against the simulated project.
func (e *Env) docker(in *shell.Interp, io *shell.IO, args []string) int {
	if len(args) == 0 {
		fmt.Fprintln(io.Err, "docker: missing command")
		return 1
	}
	if args[0] != "compose" {
		switch args[0] {
		case "ps":
			return e.ps(io)
		case "version", "info", "images", "pull":
			fmt.Fprintf(io.Out, "docker %s: ok\n", args[0])
			return 0
		default:
			fmt.Fprintf(io.Err, "docker: unknown command %q\n", args[0])
			return 1
		}
	}

	// docker compose [-f FILE] [-p NAME] VERB [args...]. The global
	// -f/--file and -p flags only exist before the verb, exactly like
	// real compose: after the verb, -f means the verb's own flag
	// (`logs -f` is --follow) and must pass through untouched.
	file := "compose.yaml"
	var verb string
	var rest []string
	for i := 1; i < len(args); i++ {
		a := args[i]
		switch {
		case verb != "":
			rest = append(rest, a)
		case (a == "-f" || a == "--file") && i+1 < len(args):
			file = args[i+1]
			i++
		case (a == "-p" || a == "--project-name") && i+1 < len(args):
			e.Project.Name = args[i+1]
			i++
		case !strings.HasPrefix(a, "-"):
			verb = a
		}
	}
	if verb == "" {
		fmt.Fprintln(io.Err, "docker compose: missing subcommand")
		return 1
	}

	load := func() (string, bool) {
		src, ok := in.FS[file]
		if !ok {
			fmt.Fprintf(io.Err, "open %s: no such file or directory\n", file)
			return "", false
		}
		if err := e.Project.Load(src); err != nil {
			fmt.Fprintf(io.Err, "docker compose: %s: %v\n", file, err)
			return "", false
		}
		return src, true
	}

	switch verb {
	case "config":
		src, ok := load()
		if !ok {
			return 1
		}
		if !hasFlag(rest, "-q", "--quiet") {
			docs, err := yamlx.ParseAllCached(src)
			if err == nil {
				io.Out.Write(yamlx.MarshalAll(docs))
			}
		}
		return 0
	case "up":
		if _, ok := load(); !ok {
			return 1
		}
		for _, c := range e.Project.Up() {
			fmt.Fprintf(io.Out, " Container %s  Started\n", c.Name)
		}
		return 0
	case "ps":
		return e.ps(io)
	case "logs":
		// Skip the verb's own flags (-f/--follow, --tail, ...); the
		// first positional argument names the service.
		var service string
		for _, a := range rest {
			if !strings.HasPrefix(a, "-") {
				service = a
				break
			}
		}
		var targets []*Container
		if service != "" {
			c, ok := e.Project.ContainerFor(service)
			if !ok {
				fmt.Fprintf(io.Err, "no such service: %s\n", service)
				return 1
			}
			targets = []*Container{c}
		} else {
			targets = e.Project.Running()
		}
		for _, c := range targets {
			io.Out.WriteString(e.Project.Logs(c))
		}
		return 0
	case "down":
		for _, c := range e.Project.Running() {
			fmt.Fprintf(io.Out, " Container %s  Removed\n", c.Name)
		}
		e.Project.Down()
		return 0
	case "version":
		fmt.Fprintln(io.Out, "Docker Compose version v2.24.0 (composesim)")
		return 0
	default:
		fmt.Fprintf(io.Err, "docker compose: unknown subcommand %q\n", verb)
		return 1
	}
}

func hasFlag(args []string, names ...string) bool {
	for _, a := range args {
		for _, n := range names {
			if a == n {
				return true
			}
		}
	}
	return false
}

// ps renders the `docker compose ps` table for running containers.
func (e *Env) ps(io *shell.IO) int {
	fmt.Fprintf(io.Out, "%-24s %-24s %-16s %-12s %s\n", "NAME", "IMAGE", "SERVICE", "STATUS", "PORTS")
	for _, c := range e.Project.Running() {
		var ports []string
		for _, pm := range c.Service.Ports {
			if pm.Host == 0 {
				ports = append(ports, fmt.Sprintf("%d/tcp", pm.Container))
				continue
			}
			ports = append(ports, fmt.Sprintf("0.0.0.0:%d->%d/tcp", pm.Host, pm.Container))
		}
		fmt.Fprintf(io.Out, "%-24s %-24s %-16s %-12s %s\n",
			c.Name, c.Service.Image, c.Service.Name, "Up", strings.Join(ports, ", "))
	}
	return 0
}

// curl answers HTTP probes against the project's published ports and
// service network, supporting the same flag shapes k8scmd's curl does.
func (e *Env) curl(in *shell.Interp, io *shell.IO, args []string) int {
	var url, outFile, writeFmt string
	silent := false
	for i := 0; i < len(args); i++ {
		a := args[i]
		switch {
		case a == "-s" || a == "--silent":
			silent = true
		case a == "-o" && i+1 < len(args):
			outFile = args[i+1]
			i++
		case a == "-w" && i+1 < len(args):
			writeFmt = args[i+1]
			i++
		case (a == "-m" || a == "--max-time") && i+1 < len(args):
			i++
		case strings.HasPrefix(a, "-"):
			// Accepted and ignored.
		default:
			url = a
		}
	}
	if url == "" {
		fmt.Fprintln(io.Err, "curl: no URL specified")
		return 2
	}
	host, port := splitHostPort(url)
	code, body, ok := e.Project.HTTPProbe(host, port)
	if !ok {
		if !silent {
			fmt.Fprintf(io.Err, "curl: (7) Failed to connect to %s port %d: Connection refused\n", host, port)
		}
		if writeFmt != "" {
			io.Out.WriteString(strings.ReplaceAll(writeFmt, "%{http_code}", "000"))
		}
		return 7
	}
	if outFile != "" {
		if outFile != "/dev/null" {
			in.FS[outFile] = body
		}
	} else {
		io.Out.WriteString(body)
		if body != "" && !strings.HasSuffix(body, "\n") {
			io.Out.WriteString("\n")
		}
	}
	if writeFmt != "" {
		io.Out.WriteString(strings.ReplaceAll(writeFmt, "%{http_code}", fmt.Sprint(code)))
	}
	return 0
}

func splitHostPort(url string) (host string, port int) {
	rest := url
	if i := strings.Index(rest, "://"); i >= 0 {
		rest = rest[i+3:]
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	host = rest
	port = 80
	if i := strings.LastIndexByte(rest, ':'); i >= 0 {
		host = rest[:i]
		if p, err := strconv.Atoi(rest[i+1:]); err == nil {
			port = p
		}
	}
	return host, port
}
