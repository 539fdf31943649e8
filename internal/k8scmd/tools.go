package k8scmd

import (
	"fmt"

	"cloudeval/internal/envoysim"
	"cloudeval/internal/shell"
	"cloudeval/internal/stage"
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

// minikube implements "minikube ip" and "minikube service NAME" against
// the simulated cluster.
func (e *Env) minikube(in *shell.Interp, io *shell.IO, args []string) int {
	if len(args) == 0 {
		fmt.Fprintln(io.Err, "minikube: missing command")
		return 1
	}
	switch args[0] {
	case "ip":
		io.Out.WriteString("192.168.49.2\n")
		return 0
	case "service":
		var buf shell.FlagBuf
		fs := shell.ParseFlags(args[1:], &buf)
		if len(fs.Positional) == 0 {
			fmt.Fprintln(io.Err, "minikube service: NAME is required")
			return 1
		}
		if fs.Has("--url") {
			return refuse(io, "minikube", "service --url")
		}
		name := fs.Positional[0]
		ns := e.namespaceOf(fs)
		url, err := e.Cluster.ServiceURL(ns, name)
		if err != nil {
			fmt.Fprintf(io.Err, "* Service %q was not found in %q namespace: %v\n", name, ns, err)
			return 1
		}
		io.Out.WriteString("|-----------|")
		writeDashes(io.Out, len(name)+2)
		io.Out.WriteString("|-------------|")
		writeDashes(io.Out, len(url)+2)
		io.Out.WriteStrings("|\n| NAMESPACE | ", name, " | TARGET PORT | ", url, " |\n")
		io.Out.WriteStrings("* Starting tunnel for service ", name, ".\n")
		io.Out.WriteStrings("* Opening service ", ns, "/", name, " in default browser...\n")
		return 0
	default:
		fmt.Fprintf(io.Err, "minikube: unknown command %q\n", args[0])
		return 1
	}
}

// writeDashes writes n dashes, a rule of minikube's service table.
func writeDashes(out *shell.Stream, n int) {
	for ; n > 0; n-- {
		out.WriteByte('-')
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
	stage.Set(stage.Apply)
	b, err := envoysim.LoadCached(src)
	stage.Set(stage.Shell)
	if err != nil {
		fmt.Fprintf(io.Err, "%v\n", err)
		return 1
	}
	if fs.Get("--mode") == "validate" {
		io.Out.WriteStrings("configuration '", file, "' OK\n")
		return 0
	}
	e.Envoy = b
	io.Out.WriteString("[info] all dependencies initialized. starting main dispatch loop\n")
	return 0
}
