package k8scmd

import (
	"fmt"
	"strings"

	"cloudeval/internal/envoysim"
	"cloudeval/internal/shell"
)

// probe answers curl's HTTP GETs against kubesim, falling back to a
// running Envoy's listeners for localhost targets.
func (e *Env) probe(host string, port int, path string) (int, string, bool) {
	if code, body, ok := e.Cluster.HTTPProbe(host, port); ok {
		return code, body, true
	}
	if e.Envoy != nil && (host == "localhost" || host == "127.0.0.1" || host == "0.0.0.0") {
		return e.Envoy.Probe(port, path)
	}
	return 0, "", false
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
		var buf shell.FlagBuf
		fs := shell.ParseFlags(args[1:], &buf)
		if len(fs.Positional) == 0 {
			fmt.Fprintln(io.Err, "minikube service: NAME is required")
			return 1
		}
		name := fs.Positional[0]
		ns := e.namespaceOf(fs)
		url, err := e.Cluster.ServiceURL(ns, name)
		if err != nil {
			fmt.Fprintf(io.Err, "* Service %q was not found in %q namespace: %v\n", name, ns, err)
			return 1
		}
		if fs.Has("--url") {
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

// envoy implements "envoy --mode validate -c FILE" and "envoy -c FILE"
// (which loads the bootstrap into the environment so curl can probe its
// listeners).
func (e *Env) envoy(in *shell.Interp, io *shell.IO, args []string) int {
	var buf shell.FlagBuf
	fs := shell.ParseFlags(args, &buf)
	file := fs.Get("-c")
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
	if fs.Get("--mode") == "validate" {
		fmt.Fprintf(io.Out, "configuration '%s' OK\n", file)
		return 0
	}
	e.Envoy = b
	fmt.Fprintln(io.Out, "[info] all dependencies initialized. starting main dispatch loop")
	return 0
}
