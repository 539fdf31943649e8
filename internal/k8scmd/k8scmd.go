// Package k8scmd binds the cloud-native command-line tools the
// benchmark's unit tests invoke — kubectl, curl, minikube and envoy — to
// the kubesim and envoysim backends, as shell builtins.
package k8scmd

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"cloudeval/internal/envoysim"
	"cloudeval/internal/jsonpath"
	"cloudeval/internal/kubesim"
	"cloudeval/internal/shell"
	"cloudeval/internal/yamlx"
)

// Env is the execution environment for one unit test: a fresh cluster,
// an optional running Envoy, and the shell interpreter wired to them.
type Env struct {
	Cluster *kubesim.Cluster
	Envoy   *envoysim.Bootstrap // set once "envoy -c file" runs
	Shell   *shell.Interp

	// What kubectl get reuses from one call to the next. named holds the
	// objects a get names while it prints them. list is the List a
	// jsonpath template reads when a get does not name exactly one
	// object; items holds that get's objects while the template renders,
	// into rendered, which is then written out.
	named       []*yamlx.Node
	list, items yamlx.Node
	rendered    []byte

	// The storage the last command's -l selector was parsed into, and
	// the last apply's results, reused by the next.
	sel     kubesim.Selector
	applied []kubesim.ApplyResult
}

// The head of the List a jsonpath template is evaluated over; like the
// items under it, only ever read.
var listAPIVersion, listKind = yamlx.String("v1"), yamlx.String("List")

// NewEnv builds a fresh environment with all tools registered.
func NewEnv() *Env {
	e := &Env{
		Cluster: kubesim.NewCluster(),
		Shell:   shell.New(),
	}
	e.items.Kind = yamlx.SeqKind
	e.list = yamlx.Node{Kind: yamlx.MapKind, Entries: []yamlx.Entry{
		{Key: "apiVersion", Value: listAPIVersion},
		{Key: "kind", Value: listKind},
		{Key: "items", Value: &e.items},
	}}
	e.Shell.AdvanceClock = e.Cluster.AdvanceTime
	e.Shell.Builtins["kubectl"] = e.kubectl
	e.Shell.Builtins["curl"] = shell.Curl(e.probe)
	e.Shell.Builtins["minikube"] = e.minikube
	e.Shell.Builtins["envoy"] = e.envoy
	return e
}

// Reset returns the environment to its pristine NewEnv state: empty
// cluster at the virtual epoch, no Envoy, cleared shell variables and
// files. Builtin bindings survive — they are bound to the Env, which
// is exactly what makes recycling worthwhile: the per-family scenario
// pools (scenario.Backend.GetEnv/PutEnv, which generalized this
// package's former env pool) wipe environments with Reset on put.
// Rebuilding an Env per execution would re-allocate the cluster maps,
// the interpreter maps and four builtin bindings; a pooled reset
// additionally retains map bucket capacity, which is why it beat
// clone-from-prototype on the cold path (BenchmarkEnvFresh vs
// BenchmarkEnvPooled; see DESIGN.md §2.6).
func (e *Env) Reset() {
	e.Cluster.Reset()
	e.Envoy = nil
	e.Shell.Reset()
	if cap(e.rendered) > maxRendered {
		e.rendered = nil
	}
	clear(e.sel[:cap(e.sel)])
}

// maxRendered is the largest jsonpath buffer a pooled Env keeps, the
// same cap as the shell's streams: one hostile answer's output does not
// stay with the Env.
const maxRendered = 64 << 10

// Interp returns the environment's shell, satisfying scenario.Env.
func (e *Env) Interp() *shell.Interp { return e.Shell }

// Now returns the environment's virtual time, satisfying scenario.Env.
func (e *Env) Now() time.Time { return e.Cluster.Now() }

func (e *Env) namespaceOf(fs shell.FlagSet) string {
	if ns := fs.Get("-n", "--namespace"); ns != "" {
		return ns
	}
	return "default"
}

// readManifest resolves "-f FILE" or "-f -" against the virtual FS or
// stdin.
func (e *Env) readManifest(fs shell.FlagSet, io *shell.IO) (string, error) {
	file := fs.Get("-f", "--filename")
	if file == "" {
		return "", fmt.Errorf("error: must specify one of -f and -k")
	}
	if file == "-" {
		return io.In, nil
	}
	content, ok := e.Shell.FS[file]
	if !ok {
		return "", fmt.Errorf("error: the path %q does not exist", file)
	}
	return content, nil
}

func parseTimeout(s string) time.Duration {
	if s == "" {
		return 30 * time.Second
	}
	if d, err := time.ParseDuration(s); err == nil {
		return d
	}
	if secs, err := strconv.Atoi(s); err == nil {
		return time.Duration(secs) * time.Second
	}
	return 30 * time.Second
}

// renderTable prints the default "kubectl get" table for a kind.
func renderTable(io *shell.IO, res *kubesim.Resource, items []*yamlx.Node) {
	switch res {
	case kubesim.Pod:
		fmt.Fprintf(io.Out, "%-44s %-7s %-9s %-9s %s\n", "NAME", "READY", "STATUS", "RESTARTS", "AGE")
		for _, it := range items {
			name := it.Path("metadata", "name").ScalarString()
			phase := it.Path("status", "phase").ScalarString()
			ready := "0/1"
			if kubesim.HasCondition(it, "Ready") {
				ready = "1/1"
			}
			fmt.Fprintf(io.Out, "%-44s %-7s %-9s %-9s %s\n", name, ready, phase, "0", "1m")
		}
	case kubesim.Service:
		fmt.Fprintf(io.Out, "%-20s %-14s %-14s %-14s %-14s %s\n", "NAME", "TYPE", "CLUSTER-IP", "EXTERNAL-IP", "PORT(S)", "AGE")
		for _, it := range items {
			name := it.Path("metadata", "name").ScalarString()
			typ := it.Path("spec", "type").ScalarString()
			if typ == "" {
				typ = "ClusterIP"
			}
			clusterIP := it.Path("spec", "clusterIP").ScalarString()
			external := "<none>"
			if typ == "LoadBalancer" {
				external = "<pending>"
				if ip := it.Path("status", "loadBalancer", "ingress", 0, "ip"); ip != nil {
					external = ip.ScalarString()
				}
			}
			var ports strings.Builder
			if pn := it.Path("spec", "ports"); pn != nil {
				ports.Grow(16 * len(pn.Items))
				for i, p := range pn.Items {
					if i > 0 {
						ports.WriteByte(',')
					}
					ports.WriteString(p.Get("port").ScalarString())
					if np := p.Get("nodePort"); np != nil {
						ports.WriteByte(':')
						ports.WriteString(np.ScalarString())
					}
					ports.WriteString("/TCP")
				}
			}
			fmt.Fprintf(io.Out, "%-20s %-14s %-14s %-14s %-14s %s\n", name, typ, clusterIP, external, ports.String(), "1m")
		}
	default:
		fmt.Fprintf(io.Out, "%-44s %s\n", "NAME", "AGE")
		for _, it := range items {
			fmt.Fprintf(io.Out, "%-44s %s\n", it.Path("metadata", "name").ScalarString(), "1m")
		}
	}
}

// evalOutput renders "kubectl get" items of a kind (nil for "get all",
// which has none) according to -o/--output.
func (e *Env) evalOutput(io *shell.IO, format string, res *kubesim.Resource, names []string, items []*yamlx.Node) int {
	switch {
	case format == "":
		renderTable(io, res, items)
		return 0
	case strings.HasPrefix(format, "jsonpath="):
		tmpl := strings.TrimPrefix(format, "jsonpath=")
		tmpl = strings.Trim(tmpl, "'\"")
		t, err := jsonpath.Compile(tmpl)
		if err != nil {
			fmt.Fprintf(io.Err, "error: error parsing jsonpath %s: %v\n", tmpl, err)
			return 1
		}
		root := &e.list
		if len(names) == 1 && len(items) == 1 {
			root = items[0]
		}
		e.items.Items = items
		e.rendered = t.Append(e.rendered[:0], root)
		e.items.Items = nil
		if len(e.rendered) > 0 {
			io.Out.Write(e.rendered)
			io.Out.WriteByte('\n')
		}
		return 0
	case format == "yaml":
		io.Out.Write(yamlx.MarshalAll(items))
		return 0
	case format == "name":
		for _, it := range items {
			io.Out.WriteString(res.Singular + "/" + it.Path("metadata", "name").ScalarString() + "\n")
		}
		return 0
	case format == "wide":
		renderTable(io, res, items)
		return 0
	default:
		fmt.Fprintf(io.Err, "error: unable to match a printer suitable for the output format %q\n", format)
		return 1
	}
}
