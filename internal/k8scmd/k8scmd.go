// Package k8scmd binds the cloud-native command-line tools the
// benchmark's unit tests invoke — kubectl, curl, minikube and envoy — to
// the kubesim and envoysim backends, as shell builtins.
package k8scmd

import (
	"fmt"
	"strings"
	"time"
	"unicode/utf8"

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

	// What kubectl get reuses from one call to the next. docs holds the
	// documents a get prints while it prints them. list is the List a
	// jsonpath template reads when a get does not name exactly one
	// object; items holds that get's documents while the template
	// renders, into rendered, which is then written out. All of these
	// point into the cluster's arena only while the command runs.
	docs        []*yamlx.Node
	list, items yamlx.Node
	rendered    []byte

	// The storage the last command's -l selector was parsed into, the
	// names of its KIND/NAME argument and the last apply's results,
	// reused by the next.
	sel     kubesim.Selector
	names   []string
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
	if cap(e.docs) > yamlx.ChunkCap {
		e.docs = nil
	}
	clear(e.sel[:cap(e.sel)])
	clear(e.names[:cap(e.names)])
}

// maxRendered is the largest jsonpath buffer a pooled Env keeps, the
// same cap as the shell's streams: one hostile answer's output does not
// stay with the Env. Its listing storage (docs) is kept up to one arena
// chunk's worth of documents, yamlx.ChunkCap, for the same reason.
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

// timeoutOf reads --timeout as kubectl does: a duration with its unit,
// kubectl's 30 s when absent, and anything else the flag's error.
func timeoutOf(fs shell.FlagSet, io *shell.IO) (time.Duration, bool) {
	s := fs.Get("--timeout")
	if s == "" {
		return 30 * time.Second, true
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		fmt.Fprintf(io.Err, "error: invalid argument %q for \"--timeout\" flag: %v\n", s, err)
		return 0, false
	}
	return d, true
}

// renderServices prints the default "kubectl get" table of Services.
func renderServices(io *shell.IO, items []*yamlx.Node) {
	out := io.Out
	out.WriteColumn("NAME", 20)
	out.WriteColumn("TYPE", 14)
	out.WriteColumn("CLUSTER-IP", 14)
	out.WriteColumn("EXTERNAL-IP", 14)
	out.WriteColumn("PORT(S)", 14)
	out.WriteString("AGE\n")
	for _, it := range items {
		typ := it.Path("spec", "type").ScalarString()
		if typ == "" {
			typ = "ClusterIP"
		}
		external := "<none>"
		if typ == "LoadBalancer" {
			external = "<pending>"
			if ip := it.Path("status", "loadBalancer", "ingress", 0, "ip"); ip != nil {
				external = ip.ScalarString()
			}
		}
		out.WriteColumn(it.Path("metadata", "name").ScalarString(), 20)
		out.WriteColumn(typ, 14)
		out.WriteColumn(it.Path("spec", "clusterIP").ScalarString(), 14)
		out.WriteColumn(external, 14)
		// PORT(S) is written a port at a time and then padded to its
		// column by what it took.
		width := 0
		if pn := it.Path("spec", "ports"); pn != nil {
			for i, p := range pn.Items {
				if i > 0 {
					out.WriteByte(',')
					width++
				}
				port := p.Get("port").ScalarString()
				out.WriteString(port)
				width += utf8.RuneCountInString(port)
				if np := p.Get("nodePort"); np != nil {
					nodePort := np.ScalarString()
					out.WriteStrings(":", nodePort)
					width += 1 + utf8.RuneCountInString(nodePort)
				}
				out.WriteString("/TCP")
				width += 4
			}
		}
		out.WriteColumn("", 14-width)
		out.WriteString("1m\n")
	}
}

// evalOutput renders "kubectl get" items: the Services table when
// format is empty, else the -o jsonpath template format carries.
func (e *Env) evalOutput(io *shell.IO, format string, names []string, items []*yamlx.Node) int {
	if format == "" {
		renderServices(io, items)
		return 0
	}
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
}
