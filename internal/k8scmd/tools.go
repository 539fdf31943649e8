package k8scmd

import (
	"fmt"
	"strconv"
	"strings"

	"cloudeval/internal/envoysim"
	"cloudeval/internal/shell"
)

// curl simulates the curl invocations unit tests use to probe services:
// "curl -s -o /dev/null -w "%{http_code}" $host_ip:5000". The probe is
// answered by the kubesim data plane and, when an Envoy bootstrap is
// running, by its listeners on localhost.
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
			if secs, err := strconv.Atoi(args[i+1]); err == nil {
				_ = secs // budget only matters on failure; probes are instant
			}
			i++
		case a == "-f" || a == "--fail" || a == "-L" || a == "-k" || a == "-4" || a == "-6" || a == "-v" || a == "-i" || a == "-I":
			// Accepted and ignored.
		case strings.HasPrefix(a, "-"):
			// Unknown flag: ignore.
		default:
			url = a
		}
	}
	if url == "" {
		fmt.Fprintln(io.Err, "curl: no URL specified")
		return 2
	}
	host, port, path := splitURL(url)
	code, body, ok := e.probe(host, port, path)
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

// probe answers an HTTP GET against kubesim, falling back to a running
// Envoy's listeners for localhost targets.
func (e *Env) probe(host string, port int, path string) (int, string, bool) {
	if code, body, ok := e.Cluster.HTTPProbe(host, port); ok {
		return code, body, true
	}
	if e.Envoy != nil && (host == "localhost" || host == "127.0.0.1" || host == "0.0.0.0") {
		return e.Envoy.Probe(port, path)
	}
	return 0, "", false
}

func splitURL(url string) (host string, port int, path string) {
	rest := url
	if i := strings.Index(rest, "://"); i >= 0 {
		rest = rest[i+3:]
	}
	path = "/"
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		path = rest[i:]
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
	return host, port, path
}

// minikube implements "minikube service", "minikube ip" and lifecycle
// no-ops against the simulated cluster.
func (e *Env) minikube(in *shell.Interp, io *shell.IO, args []string) int {
	if len(args) == 0 {
		fmt.Fprintln(io.Err, "minikube: missing command")
		return 1
	}
	switch args[0] {
	case "ip":
		fmt.Fprintln(io.Out, "192.168.49.2")
		return 0
	case "start":
		fmt.Fprintln(io.Out, "* minikube v1.31.0 (kubesim)")
		fmt.Fprintln(io.Out, "* Done! kubectl is now configured to use \"minikube\" cluster")
		return 0
	case "stop", "delete", "status":
		fmt.Fprintf(io.Out, "* minikube %s: ok\n", args[0])
		return 0
	case "service":
		var buf flagBuf
		fs := parseFlags(args[1:], &buf)
		if len(fs.positional) == 0 {
			fmt.Fprintln(io.Err, "minikube service: NAME is required")
			return 1
		}
		name := fs.positional[0]
		ns := e.namespaceOf(fs)
		url, err := e.Cluster.ServiceURL(ns, name)
		if err != nil {
			fmt.Fprintf(io.Err, "* Service %q was not found in %q namespace: %v\n", name, ns, err)
			return 1
		}
		if fs.has("--url") {
			fmt.Fprintln(io.Out, url)
			return 0
		}
		fmt.Fprintf(io.Out, "|-----------|%s|-------------|%s|\n", strings.Repeat("-", len(name)+2), strings.Repeat("-", len(url)+2))
		fmt.Fprintf(io.Out, "| NAMESPACE | %s | TARGET PORT | %s |\n", name, url)
		fmt.Fprintf(io.Out, "* Starting tunnel for service %s.\n", name)
		fmt.Fprintf(io.Out, "* Opening service %s/%s in default browser...\n", ns, name)
		return 0
	default:
		fmt.Fprintf(io.Err, "minikube: unknown command %q\n", args[0])
		return 1
	}
}

// istioctl accepts the analyze/version forms Istio problems use; the
// Istio resources themselves live in kubesim as custom resources.
func (e *Env) istioctl(in *shell.Interp, io *shell.IO, args []string) int {
	if len(args) == 0 {
		fmt.Fprintln(io.Err, "istioctl: missing command")
		return 1
	}
	switch args[0] {
	case "analyze":
		fmt.Fprintln(io.Out, "No validation issues found when analyzing namespace: default.")
		return 0
	case "version":
		fmt.Fprintln(io.Out, "client version: 1.19.0 (istiosim)")
		return 0
	default:
		fmt.Fprintf(io.Out, "istioctl %s: ok\n", args[0])
		return 0
	}
}

// envoy implements "envoy --mode validate -c FILE" and "envoy -c FILE"
// (which loads the bootstrap into the environment so curl can probe its
// listeners).
func (e *Env) envoy(in *shell.Interp, io *shell.IO, args []string) int {
	var buf flagBuf
	fs := parseFlags(args, &buf)
	file := fs.get("-c")
	if file == "" {
		fmt.Fprintln(io.Err, "envoy: -c <config> is required")
		return 1
	}
	src, ok := in.FS[file]
	if !ok {
		fmt.Fprintf(io.Err, "envoy: unable to read file: %s\n", file)
		return 1
	}
	b, err := envoysim.LoadCached(src)
	if err != nil {
		fmt.Fprintf(io.Err, "%v\n", err)
		return 1
	}
	if fs.get("--mode") == "validate" {
		fmt.Fprintf(io.Out, "configuration '%s' OK\n", file)
		return 0
	}
	e.Envoy = b
	fmt.Fprintln(io.Out, "[info] all dependencies initialized. starting main dispatch loop")
	return 0
}

// docker supports the "docker run ... envoy -c file" pattern by
// delegating to the envoy builtin, and treats images as always present
// (the registry cache is modeled in the evalcluster package).
func (e *Env) docker(in *shell.Interp, io *shell.IO, args []string) int {
	if len(args) == 0 {
		fmt.Fprintln(io.Err, "docker: missing command")
		return 1
	}
	switch args[0] {
	case "run":
		// Find an envoy invocation inside the argument list.
		for i, a := range args {
			if strings.Contains(a, "envoy") && i+1 < len(args) {
				return e.envoy(in, io, args[i+1:])
			}
		}
		fmt.Fprintln(io.Out, "container started")
		return 0
	case "ps", "images", "pull", "stop", "rm", "kill":
		fmt.Fprintf(io.Out, "docker %s: ok\n", args[0])
		return 0
	default:
		fmt.Fprintf(io.Err, "docker: unknown command %q\n", args[0])
		return 1
	}
}
