// Package helmsim binds a simulated `helm` CLI to the kubesim cluster:
// charts are single-file manifest bundles (the documents a real chart's
// templates would render), `helm template` renders and validates them,
// and `helm install` applies them into the same simulated cluster the
// kubectl builtin reads — so Helm-family unit tests can mix helm verbs
// with kubectl assertions, exactly like the Kubernetes families do.
//
// The environment wraps k8scmd.Env, inheriting kubectl, curl, minikube
// and the rest of the tool set, and adds release bookkeeping on top.
package helmsim

import (
	"fmt"
	"strings"
	"time"

	"cloudeval/internal/k8scmd"
	"cloudeval/internal/kubesim"
	"cloudeval/internal/shell"
	"cloudeval/internal/yamlx"
)

// release records one installed chart.
type release struct {
	Name       string
	Namespace  string
	Revision   int
	DeployedAt time.Time
	Applied    []kubesim.ApplyResult
}

// Env is the execution environment for one Helm-family unit test: the
// full Kubernetes tool environment plus the helm builtin and its
// release table. It satisfies scenario.Env.
type Env struct {
	*k8scmd.Env
	releases map[string]*release // ns/name
	order    []string            // install order of release keys
}

// NewEnv builds a fresh environment with helm registered alongside the
// Kubernetes tools.
func NewEnv() *Env {
	e := &Env{Env: k8scmd.NewEnv(), releases: make(map[string]*release)}
	e.Shell.Builtins["helm"] = e.helm
	return e
}

// Reset wipes the environment — cluster, shell and release table — for
// pool recycling.
func (e *Env) Reset() {
	e.Env.Reset()
	clear(e.releases)
	e.order = e.order[:0]
}

func relKey(ns, name string) string { return ns + "/" + name }

// helm implements template, install, upgrade, ls/list, status and
// uninstall against the simulated cluster.
func (e *Env) helm(in *shell.Interp, io *shell.IO, args []string) int {
	if len(args) == 0 {
		fmt.Fprintln(io.Err, "helm: missing command")
		return 1
	}
	verb := args[0]
	var positional []string
	ns := "default"
	file := ""
	createNS := false
	for i := 1; i < len(args); i++ {
		a := args[i]
		switch {
		case (a == "-n" || a == "--namespace") && i+1 < len(args):
			ns = args[i+1]
			i++
		case (a == "-f" || a == "--values") && i+1 < len(args):
			file = args[i+1]
			i++
		case a == "--create-namespace":
			createNS = true
		case strings.HasPrefix(a, "-"):
			// Accepted and ignored (e.g. --wait).
		default:
			positional = append(positional, a)
		}
	}

	switch verb {
	case "version":
		fmt.Fprintln(io.Out, `version.BuildInfo{Version:"v3.14.0 (helmsim)"}`)
		return 0
	case "template", "install", "upgrade":
		if len(positional) == 0 {
			fmt.Fprintf(io.Err, "Error: %s requires a release name\n", verb)
			return 1
		}
		name := positional[0]
		docs, code := e.renderChart(in, io, file)
		if code != 0 {
			return code
		}
		if verb == "template" {
			for _, d := range docs {
				kind := strings.ToLower(d.Get("kind").ScalarString())
				fmt.Fprintf(io.Out, "---\n# Source: %s/templates/%s.yaml\n", name, kind)
				io.Out.Write(yamlx.Marshal(d))
			}
			return 0
		}
		return e.install(io, verb, name, ns, createNS, docs)
	case "ls", "list":
		fmt.Fprintf(io.Out, "%-16s %-12s %-9s %-10s %s\n", "NAME", "NAMESPACE", "REVISION", "STATUS", "CHART")
		for _, key := range e.order {
			r := e.releases[key]
			if r.Namespace != ns && !hasAllNamespaces(args) {
				continue
			}
			fmt.Fprintf(io.Out, "%-16s %-12s %-9d %-10s %s-0.1.0\n", r.Name, r.Namespace, r.Revision, "deployed", r.Name)
		}
		return 0
	case "status":
		if len(positional) == 0 {
			fmt.Fprintln(io.Err, "Error: status requires a release name")
			return 1
		}
		r, ok := e.releases[relKey(ns, positional[0])]
		if !ok {
			fmt.Fprintf(io.Err, "Error: release: not found\n")
			return 1
		}
		fmt.Fprintf(io.Out, "NAME: %s\nLAST DEPLOYED: %s\nNAMESPACE: %s\nSTATUS: deployed\nREVISION: %d\nRESOURCES: %d\n",
			r.Name, r.DeployedAt.Format("Mon Jan  2 15:04:05 2006"), r.Namespace, r.Revision, len(r.Applied))
		return 0
	case "uninstall", "delete":
		if len(positional) == 0 {
			fmt.Fprintln(io.Err, "Error: uninstall requires a release name")
			return 1
		}
		key := relKey(ns, positional[0])
		r, ok := e.releases[key]
		if !ok {
			fmt.Fprintf(io.Err, "Error: uninstall: Release not loaded: %s: release: not found\n", positional[0])
			return 1
		}
		for _, a := range r.Applied {
			e.Cluster.Delete(a.Resource, a.Namespace, a.Name)
		}
		delete(e.releases, key)
		for i, k := range e.order {
			if k == key {
				e.order = append(e.order[:i], e.order[i+1:]...)
				break
			}
		}
		fmt.Fprintf(io.Out, "release \"%s\" uninstalled\n", positional[0])
		return 0
	default:
		fmt.Fprintf(io.Err, "Error: unknown command %q for \"helm\"\n", verb)
		return 1
	}
}

func hasAllNamespaces(args []string) bool {
	for _, a := range args {
		if a == "-A" || a == "--all-namespaces" {
			return true
		}
	}
	return false
}

// renderChart reads and validates the chart bundle: every document must
// be a well-formed manifest (apiVersion, kind, metadata.name), the same
// contract `helm template` enforces on rendered output.
func (e *Env) renderChart(in *shell.Interp, io *shell.IO, file string) ([]*yamlx.Node, int) {
	if file == "" {
		fmt.Fprintln(io.Err, "Error: chart bundle required: pass -f <file>")
		return nil, 1
	}
	src, ok := in.FS[file]
	if !ok {
		fmt.Fprintf(io.Err, "Error: open %s: no such file or directory\n", file)
		return nil, 1
	}
	docs, err := yamlx.ParseAllCached(src)
	if err != nil {
		fmt.Fprintf(io.Err, "Error: YAML parse error on %s: %v\n", file, err)
		return nil, 1
	}
	var out []*yamlx.Node
	for _, d := range docs {
		if d == nil || d.Kind == yamlx.NullKind {
			continue
		}
		if _, err := kubesim.ValidateManifest(d); err != nil {
			fmt.Fprintf(io.Err, "Error: unable to build kubernetes objects from release manifest: %v\n", err)
			return nil, 1
		}
		out = append(out, d)
	}
	if len(out) == 0 {
		fmt.Fprintf(io.Err, "Error: release manifest contains no resources\n")
		return nil, 1
	}
	return out, 0
}

// install applies rendered documents into the cluster and records the
// release. A failed apply rolls back the documents applied so far and
// records nothing, mirroring helm's atomic failure mode — the release
// table and install order are only touched once every document landed.
func (e *Env) install(io *shell.IO, verb, name, ns string, createNS bool, docs []*yamlx.Node) int {
	if createNS && !e.Cluster.HasNamespace(ns) {
		e.Cluster.CreateNamespace(ns)
	}
	r := &release{Name: name, Namespace: ns, Revision: 1, DeployedAt: e.Cluster.Now()}
	key := relKey(ns, name)
	prev, existed := e.releases[key]
	if existed {
		r.Revision = prev.Revision + 1
	}
	for _, d := range docs {
		res, err := e.Cluster.Apply(d.Clone(), ns)
		if err != nil {
			if !existed {
				// Fresh install: roll back what landed so a failed
				// release leaves no trace. A failed upgrade must NOT
				// delete — the applied objects are the live release's
				// own resources; like helm without --atomic, the
				// release stays at its previous revision.
				for _, a := range r.Applied {
					e.Cluster.Delete(a.Resource, a.Namespace, a.Name)
				}
			}
			fmt.Fprintf(io.Err, "Error: %s failed: %v\n", verb, err)
			return 1
		}
		r.Applied = append(r.Applied, res)
	}
	if !existed {
		e.order = append(e.order, key)
	}
	e.releases[key] = r
	fmt.Fprintf(io.Out, "NAME: %s\nNAMESPACE: %s\nSTATUS: deployed\nREVISION: %d\n", name, ns, r.Revision)
	return 0
}
