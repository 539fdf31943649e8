package composesim

import (
	"fmt"
	"strings"

	"cloudeval/internal/shell"
	"cloudeval/internal/stage"
	"cloudeval/internal/yamlx"
)

// docker implements the `docker compose` verbs the corpus's compose
// unit tests use (config, up, ps and logs of a service) and the
// clean-up idiom down, against the simulated project. Any other form is
// refused by name.
func (e *Env) docker(in *shell.Interp, io *shell.IO, args []string) int {
	if len(args) == 0 {
		fmt.Fprintln(io.Err, "docker: missing command")
		return 1
	}
	if args[0] != "compose" {
		fmt.Fprintf(io.Err, "docker: unknown command %q\n", args[0])
		return 1
	}

	// docker compose [-f FILE] VERB [args...]. The global -f/--file flag
	// only exists before the verb, exactly like real compose: after the
	// verb, -f means the verb's own flag (`logs -f` is --follow) and
	// must pass through untouched.
	file := "compose.yaml"
	var verb string
	var rest []string
	for i := 1; i < len(args) && verb == ""; i++ {
		a := args[i]
		switch {
		case (a == "-f" || a == "--file") && i+1 < len(args):
			file = args[i+1]
			i++
		case a == "-p" || a == "--project-name":
			fmt.Fprintf(io.Err, "docker compose: %s is not supported\n", a)
			return 1
		case !strings.HasPrefix(a, "-"):
			verb, rest = a, args[i+1:]
		}
	}
	if verb == "" {
		fmt.Fprintln(io.Err, "docker compose: missing subcommand")
		return 1
	}

	load := func() (string, bool) {
		stage.Set(stage.Apply)
		defer stage.Set(stage.Shell)
		src, ok := in.FS[file]
		if !ok {
			fmt.Fprintf(io.Err, "open %s: no such file or directory\n", file)
			return "", false
		}
		if err := e.Project.Load(src); err != nil {
			io.Err.WriteStrings("docker compose: ", file, ": ")
			io.Err.WriteError(err)
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
		var buf shell.FlagBuf
		if !shell.ParseFlags(rest, &buf).Has("-q", "--quiet") {
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
		e.Project.Up()
		for _, c := range e.list() {
			io.Out.WriteStrings(" Container ", c.Name, "  Started\n")
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
		if service == "" {
			fmt.Fprintln(io.Err, "docker compose: logs of every service is not supported: name one")
			return 1
		}
		c, ok := e.Project.ContainerFor(service)
		if !ok {
			fmt.Fprintf(io.Err, "no such service: %s\n", service)
			return 1
		}
		writeLogs(io.Out, c)
		return 0
	case "down":
		for _, c := range e.list() {
			io.Out.WriteStrings(" Container ", c.Name, "  Removed\n")
		}
		e.Project.Down()
		return 0
	default:
		fmt.Fprintf(io.Err, "docker compose: unknown subcommand %q\n", verb)
		return 1
	}
}

// list is the running containers, in e.running until the next list.
func (e *Env) list() []*Container {
	clear(e.running)
	e.running = e.Project.Running(e.running[:0])
	return e.running
}

// ps renders the `docker compose ps` table for running containers.
func (e *Env) ps(io *shell.IO) int {
	out := io.Out
	out.WriteColumn("NAME", 24)
	out.WriteColumn("IMAGE", 24)
	out.WriteColumn("SERVICE", 16)
	out.WriteColumn("STATUS", 12)
	out.WriteString("PORTS\n")
	for _, c := range e.list() {
		out.WriteColumn(c.Name, 24)
		out.WriteColumn(c.Service.Image, 24)
		out.WriteColumn(c.Service.Name, 16)
		out.WriteColumn("Up", 12)
		for i, pm := range c.Service.Ports {
			if i > 0 {
				out.WriteString(", ")
			}
			if pm.Host != 0 {
				out.WriteString("0.0.0.0:")
				out.WriteInt(pm.Host)
				out.WriteString("->")
			}
			out.WriteInt(pm.Container)
			out.WriteString("/tcp")
		}
		out.WriteByte('\n')
	}
	return 0
}
