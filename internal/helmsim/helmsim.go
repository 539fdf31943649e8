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
	"slices"
	"strconv"
	"time"

	"cloudeval/internal/k8scmd"
	"cloudeval/internal/kubesim"
	"cloudeval/internal/shell"
	"cloudeval/internal/yamlx"
)

// release records one installed chart.
type release struct {
	relKey
	Revision   int
	DeployedAt time.Time
	Applied    []kubesim.ApplyResult
}

// relKey names a release: its namespace and its name.
type relKey struct{ ns, name string }

// Env is the execution environment for one Helm-family unit test: the
// full Kubernetes tool environment plus the helm builtin and its
// release table. It satisfies scenario.Env.
type Env struct {
	*k8scmd.Env

	// What helm keeps from one command to the next, and from one
	// execution to the next on a pooled Env: the releases in install
	// order, their applied objects in chunks, and the documents of the
	// chart being rendered. Reset empties them, rewinds the chunks
	// (which keep one chunk) and drops a slice once it outgrows
	// yamlx.ChunkCap.
	releases []release
	applied  yamlx.Chunks[kubesim.ApplyResult]
	docs     []*yamlx.Node
}

// NewEnv builds a fresh environment with helm registered alongside the
// Kubernetes tools.
func NewEnv() *Env {
	e := &Env{Env: k8scmd.NewEnv()}
	e.Shell.Builtins["helm"] = e.helm
	return e
}

// Reset wipes the environment — cluster, shell and release table — for
// pool recycling.
func (e *Env) Reset() {
	e.Env.Reset()
	if cap(e.releases) > yamlx.ChunkCap {
		e.releases = nil
	} else {
		clear(e.releases)
		e.releases = e.releases[:0]
	}
	e.applied.Rewind()
	if cap(e.docs) > yamlx.ChunkCap {
		e.docs = nil
	}
}

// find returns the index of the release ns/name, or -1.
func (e *Env) find(ns, name string) int {
	return slices.IndexFunc(e.releases, func(r release) bool { return r.relKey == relKey{ns, name} })
}

// helm implements template, install, upgrade, ls/list, status and
// uninstall against the simulated cluster.
func (e *Env) helm(in *shell.Interp, io *shell.IO, args []string) int {
	if len(args) == 0 {
		fmt.Fprintln(io.Err, "helm: missing command")
		return 1
	}
	verb := args[0]
	var buf shell.FlagBuf
	fs := shell.ParseFlags(args[1:], &buf)
	positional := fs.Positional
	ns := fs.Get("-n", "--namespace")
	if ns == "" {
		ns = "default"
	}

	switch verb {
	case "version":
		io.Out.WriteString("version.BuildInfo{Version:\"v3.14.0 (helmsim)\"}\n")
		return 0
	case "template", "install", "upgrade":
		if len(positional) == 0 {
			fmt.Fprintf(io.Err, "Error: %s requires a release name\n", verb)
			return 1
		}
		name := positional[0]
		docs, code := e.renderChart(in, io, fs.Get("-f", "--values"))
		defer clear(e.docs)
		if code != 0 {
			return code
		}
		if verb == "template" {
			for _, d := range docs {
				// renderChart validated d, so its kind is a row's Kind.
				r, _ := kubesim.Lookup(d.Get("kind").ScalarString())
				io.Out.WriteStrings("---\n# Source: ", name, "/templates/", r.Singular, ".yaml\n")
				io.Out.Write(yamlx.Marshal(d))
			}
			return 0
		}
		return e.install(io, verb, name, ns, fs.Has("--create-namespace"), docs)
	case "ls", "list":
		out := io.Out
		out.WriteColumn("NAME", 16)
		out.WriteColumn("NAMESPACE", 12)
		out.WriteColumn("REVISION", 9)
		out.WriteColumn("STATUS", 10)
		out.WriteString("CHART\n")
		for _, r := range e.releases {
			if r.ns != ns && !fs.Has("-A", "--all-namespaces") {
				continue
			}
			out.WriteColumn(r.name, 16)
			out.WriteColumn(r.ns, 12)
			out.WriteColumn(strconv.Itoa(r.Revision), 9)
			out.WriteColumn("deployed", 10)
			out.WriteStrings(r.name, "-0.1.0\n")
		}
		return 0
	case "status":
		if len(positional) == 0 {
			fmt.Fprintln(io.Err, "Error: status requires a release name")
			return 1
		}
		i := e.find(ns, positional[0])
		if i < 0 {
			fmt.Fprintf(io.Err, "Error: release: not found\n")
			return 1
		}
		r := &e.releases[i]
		var stamp [32]byte
		io.Out.WriteStrings("NAME: ", r.name, "\nLAST DEPLOYED: ")
		io.Out.Write(r.DeployedAt.AppendFormat(stamp[:0], "Mon Jan  2 15:04:05 2006"))
		io.Out.WriteStrings("\nNAMESPACE: ", r.ns, "\nSTATUS: deployed\nREVISION: ")
		io.Out.WriteInt(r.Revision)
		io.Out.WriteString("\nRESOURCES: ")
		io.Out.WriteInt(len(r.Applied))
		io.Out.WriteByte('\n')
		return 0
	case "uninstall", "delete":
		if len(positional) == 0 {
			fmt.Fprintln(io.Err, "Error: uninstall requires a release name")
			return 1
		}
		i := e.find(ns, positional[0])
		if i < 0 {
			fmt.Fprintf(io.Err, "Error: uninstall: Release not loaded: %s: release: not found\n", positional[0])
			return 1
		}
		for _, a := range e.releases[i].Applied {
			e.Cluster.Delete(a.Resource, a.Namespace, a.Name)
		}
		e.releases = slices.Delete(e.releases, i, i+1)
		io.Out.WriteStrings("release \"", positional[0], "\" uninstalled\n")
		return 0
	default:
		fmt.Fprintf(io.Err, "Error: unknown command %q for \"helm\"\n", verb)
		return 1
	}
}

// renderChart reads and validates the chart bundle: every document must
// be a well-formed manifest (apiVersion, kind, metadata.name), the same
// contract `helm template` enforces on rendered output. The documents
// are listed in e.docs, which the caller clears once it is done with
// them.
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
	e.docs = e.docs[:0]
	for _, d := range docs {
		if d == nil || d.Kind == yamlx.NullKind {
			continue
		}
		if _, err := kubesim.ValidateManifest(d); err != nil {
			fmt.Fprintf(io.Err, "Error: unable to build kubernetes objects from release manifest: %v\n", err)
			return nil, 1
		}
		e.docs = append(e.docs, d)
	}
	if len(e.docs) == 0 {
		fmt.Fprintf(io.Err, "Error: release manifest contains no resources\n")
		return nil, 1
	}
	return e.docs, 0
}

// install applies rendered documents into the cluster and records the
// release. A failed apply rolls back the documents applied so far and
// records nothing, mirroring helm's atomic failure mode — the release
// table and install order are only touched once every document landed.
func (e *Env) install(io *shell.IO, verb, name, ns string, createNS bool, docs []*yamlx.Node) int {
	if createNS && !e.Cluster.HasNamespace(ns) {
		e.Cluster.CreateNamespace(ns)
	}
	r := release{relKey: relKey{ns, name}, Revision: 1, DeployedAt: e.Cluster.Now()}
	i := e.find(ns, name)
	if i >= 0 {
		r.Revision = e.releases[i].Revision + 1
	}
	r.Applied = e.applied.Take(len(docs))[:0]
	for _, d := range docs {
		res, err := e.Cluster.Apply(d, ns)
		if err != nil {
			if i < 0 {
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
	if i < 0 {
		e.releases = append(e.releases, r)
	} else {
		e.releases[i] = r
	}
	io.Out.WriteStrings("NAME: ", name, "\nNAMESPACE: ", ns, "\nSTATUS: deployed\nREVISION: ")
	io.Out.WriteInt(r.Revision)
	io.Out.WriteByte('\n')
	return 0
}
