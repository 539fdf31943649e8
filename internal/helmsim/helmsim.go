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
	"time"

	"cloudeval/internal/k8scmd"
	"cloudeval/internal/kubesim"
	"cloudeval/internal/shell"
	"cloudeval/internal/stage"
	"cloudeval/internal/yamlx"
)

// release records one installed chart. A release is installed once,
// so it is always at revision 1.
type release struct {
	relKey
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

// helm implements the verbs the corpus's Helm unit tests use — template,
// install, ls/list -n and status — and the clean-up idiom uninstall,
// against the simulated cluster.
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
	case "template", "install":
		stage.Set(stage.Apply)
		defer stage.Set(stage.Shell)
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
		return e.install(io, name, ns, fs.Has("--create-namespace"), docs)
	case "ls", "list":
		if fs.Has("-A", "--all-namespaces") {
			fmt.Fprintf(io.Err, "Error: %s -A is not supported\n", verb)
			return 1
		}
		out := io.Out
		out.WriteColumn("NAME", 16)
		out.WriteColumn("NAMESPACE", 12)
		out.WriteColumn("REVISION", 9)
		out.WriteColumn("STATUS", 10)
		out.WriteString("CHART\n")
		for _, r := range e.releases {
			if r.ns != ns {
				continue
			}
			out.WriteColumn(r.name, 16)
			out.WriteColumn(r.ns, 12)
			out.WriteColumn("1", 9)
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
		io.Out.WriteStrings("\nNAMESPACE: ", r.ns, "\nSTATUS: deployed\nREVISION: 1")
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
	stage.Set(stage.Parse)
	docs, err := yamlx.ParseAllCached(src)
	stage.Set(stage.Apply)
	if err != nil {
		io.Err.WriteStrings("Error: YAML parse error on ", file, ": ")
		io.Err.WriteError(err)
		return nil, 1
	}
	e.docs = e.docs[:0]
	for _, d := range docs {
		if d == nil || d.Kind == yamlx.NullKind {
			continue
		}
		if _, err := e.Cluster.ValidateManifest(d); err != nil {
			io.Err.WriteString("Error: unable to build kubernetes objects from release manifest: ")
			io.Err.WriteError(err)
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
// release. A name already installed in the namespace is refused, as
// helm refuses it. A failed apply rolls back the documents applied so
// far and records nothing, mirroring helm's atomic failure mode — the
// release table and install order are only touched once every document
// landed.
func (e *Env) install(io *shell.IO, name, ns string, createNS bool, docs []*yamlx.Node) int {
	if createNS && !e.Cluster.HasNamespace(ns) {
		e.Cluster.CreateNamespace(ns)
	}
	if e.find(ns, name) >= 0 {
		fmt.Fprintln(io.Err, "Error: INSTALLATION FAILED: cannot re-use a name that is still in use")
		return 1
	}
	r := release{relKey: relKey{ns, name}, DeployedAt: e.Cluster.Now()}
	r.Applied = e.applied.Take(len(docs))[:0]
	for _, d := range docs {
		res, err := e.Cluster.Apply(d, ns)
		if err != nil {
			for _, a := range r.Applied {
				e.Cluster.Delete(a.Resource, a.Namespace, a.Name)
			}
			io.Err.WriteString("Error: install failed: ")
			io.Err.WriteError(err)
			return 1
		}
		r.Applied = append(r.Applied, res)
	}
	e.releases = append(e.releases, r)
	io.Out.WriteStrings("NAME: ", name, "\nNAMESPACE: ", ns, "\nSTATUS: deployed\nREVISION: 1\n")
	return 0
}
