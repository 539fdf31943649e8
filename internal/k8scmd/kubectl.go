package k8scmd

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"cloudeval/internal/kubesim"
	"cloudeval/internal/shell"
	"cloudeval/internal/stage"
)

// kubectl implements the kubectl subcommands the corpus's unit tests
// use — apply, get, wait, create ns|clusterrole and describe ingress —
// and the clean-up and rollout idioms delete, logs and rollout status.
// Any other form is refused by name.
func (e *Env) kubectl(in *shell.Interp, io *shell.IO, args []string) int {
	if len(args) == 0 {
		fmt.Fprintln(io.Err, "kubectl: missing subcommand")
		return 1
	}
	sub := args[0]
	switch sub {
	case "apply", "delete", "create":
		stage.Set(stage.Apply)
		defer stage.Set(stage.Shell)
	case "wait", "rollout":
		stage.Set(stage.Wait)
		defer stage.Set(stage.Shell)
	}
	var buf shell.FlagBuf
	fs := shell.ParseFlags(args[1:], &buf)
	switch sub {
	case "apply":
		return e.kubectlApply(fs, io)
	case "delete":
		return e.kubectlDelete(fs, io)
	case "create":
		return e.kubectlCreate(fs, io)
	case "get":
		return e.kubectlGet(fs, io)
	case "describe":
		return e.kubectlDescribe(fs, io)
	case "wait":
		return e.kubectlWait(fs, io)
	case "logs":
		return e.kubectlLogs(fs, io)
	case "rollout":
		return e.kubectlRollout(fs, io)
	default:
		fmt.Fprintf(io.Err, "error: unknown command %q for \"kubectl\"\n", sub)
		return 1
	}
}

// refuse fails a form the simulator does not serve, naming it, the way
// the shell refuses what it does not read.
func refuse(io *shell.IO, tool, form string) int {
	fmt.Fprintf(io.Err, "%s: %s is not supported\n", tool, form)
	return 1
}

// kindAndNames splits a command's positional arguments into the kind
// and the names it is given, reading "KIND/NAME" as kubectl does. The
// names of that form are listed in the Env's storage for them, good
// until the next command.
func (e *Env) kindAndNames(args []string) (string, []string) {
	kind, names := args[0], args[1:]
	if k, name, ok := strings.Cut(kind, "/"); ok {
		e.names = append(append(e.names[:0], name), names...)
		kind, names = k, e.names
	}
	return kind, names
}

func (e *Env) kubectlApply(fs shell.FlagSet, io *shell.IO) int {
	src, ok := e.readManifest(fs, io)
	if !ok {
		return 1
	}
	results, err := e.Cluster.ApplyYAML(e.applied[:0], src, e.namespaceOf(fs))
	for _, r := range results {
		io.Out.WriteString(r.Resource.Singular)
		io.Out.WriteByte('/')
		io.Out.WriteString(r.Name)
		if r.Created {
			io.Out.WriteString(" created\n")
		} else {
			io.Out.WriteString(" configured\n")
		}
	}
	clear(results)
	e.applied = results[:0]
	if err != nil {
		io.Err.WriteString("Error from server (BadRequest): error when creating ")
		writeQuoted(io.Err, fs.Get("-f", "--filename"))
		io.Err.WriteString(": ")
		io.Err.WriteError(err)
		return 1
	}
	return 0
}

// writeQuoted writes s as fmt's %q would.
func writeQuoted(w *shell.Stream, s string) {
	var buf [64]byte
	w.Write(strconv.AppendQuote(buf[:0], s))
}

func (e *Env) kubectlDelete(fs shell.FlagSet, io *shell.IO) int {
	if fs.Get("-f", "--filename") != "" {
		src, ok := e.readManifest(fs, io)
		if !ok {
			return 1
		}
		lines, err := e.Cluster.DeleteYAML(src, e.namespaceOf(fs))
		for _, ln := range lines {
			io.Out.WriteStrings(ln, "\n")
		}
		if err != nil {
			io.Err.WriteError(err)
			return 1
		}
		return 0
	}
	if len(fs.Positional) == 0 || len(fs.Positional) == 1 && !strings.Contains(fs.Positional[0], "/") {
		fmt.Fprintln(io.Err, "error: resource(s) were provided, but no name was specified")
		return 1
	}
	kind, names := e.kindAndNames(fs.Positional)
	res, ok := resourceOf(io, kind)
	if !ok {
		return 1
	}
	code := 0
	for _, name := range names {
		switch err := e.Cluster.Delete(res, e.namespaceOf(fs), name); {
		case errors.Is(err, kubesim.ErrNotFound):
			writeNotFound(io, res.GroupResource, name)
			code = 1
		case err != nil:
			io.Err.WriteString("Error from server (NotFound): ")
			io.Err.WriteError(err)
			code = 1
		default:
			io.Out.WriteStrings(res.GroupKind, " ")
			writeQuoted(io.Out, name)
			io.Out.WriteString(" deleted\n")
		}
	}
	return code
}

// kubectlCreate creates a namespace, or a cluster role granting --verb
// on --resource.
func (e *Env) kubectlCreate(fs shell.FlagSet, io *shell.IO) int {
	if fs.Get("-f", "--filename") != "" {
		return refuse(io, "kubectl", "create -f")
	}
	if len(fs.Positional) == 0 {
		fmt.Fprintln(io.Err, "error: you must specify resources to create")
		return 1
	}
	var role *kubesim.Resource
	switch kind := strings.ToLower(fs.Positional[0]); kind {
	case "ns", "namespace":
	case "clusterrole":
		role = kubesim.ClusterRole
	default:
		return refuse(io, "kubectl", "create "+kind)
	}
	if len(fs.Positional) < 2 {
		fmt.Fprintln(io.Err, "error: exactly one NAME is required")
		return 1
	}
	name := fs.Positional[1]
	if role == nil {
		if err := e.Cluster.CreateNamespace(name); err != nil {
			io.Err.WriteString("Error from server (AlreadyExists): ")
			io.Err.WriteError(err)
			return 1
		}
		io.Out.WriteStrings("namespace/", name, " created\n")
		return 0
	}
	if _, err := e.Cluster.CreateRole(role, e.namespaceOf(fs), name, fs.Get("--verb"), fs.Get("--resource")); err != nil {
		io.Err.WriteError(err)
		return 1
	}
	io.Out.WriteStrings(role.GroupKind, "/", name, " created\n")
	return 0
}

// selectorOf parses the command's -l/--selector into the storage of the
// last command's, which nothing holds once that command has returned.
// What kubectl cannot parse is its error and the command's failure,
// never a selector that matches everything.
func (e *Env) selectorOf(fs shell.FlagSet, io *shell.IO) (kubesim.Selector, bool) {
	sel, err := kubesim.AppendSelector(e.sel[:0], fs.Get("-l", "--selector"))
	if err != nil {
		io.Err.WriteString("error: ")
		io.Err.WriteError(err)
		return nil, false
	}
	e.sel = sel
	return sel, true
}

// resourceOf resolves the kind a command names to its row of the
// resource table; a spelling no row knows is the API server's error.
func resourceOf(io *shell.IO, kind string) (*kubesim.Resource, bool) {
	r, ok := kubesim.Lookup(kind)
	if !ok {
		io.Err.WriteString("error: the server doesn't have a resource type ")
		writeQuoted(io.Err, kind)
		io.Err.WriteByte('\n')
	}
	return r, ok
}

// writeNotFound is the API server's answer for an object that is not
// there; resource is its row's GroupResource.
func writeNotFound(io *shell.IO, resource, name string) {
	io.Err.WriteString("Error from server (NotFound): ")
	io.Err.WriteString(resource)
	io.Err.WriteByte(' ')
	writeQuoted(io.Err, name)
	io.Err.WriteString(" not found\n")
}

func writeNoResources(io *shell.IO, ns string) {
	io.Err.WriteString("No resources found in ")
	io.Err.WriteString(ns)
	io.Err.WriteString(" namespace.\n")
}

func (e *Env) kubectlGet(fs shell.FlagSet, io *shell.IO) int {
	if len(fs.Positional) == 0 {
		fmt.Fprintln(io.Err, "error: you must specify the type of resource to get")
		return 1
	}
	kind, names := e.kindAndNames(fs.Positional)
	// "all" names a category of kinds, not a kind, and no corpus
	// script names it.
	if kind == "all" {
		return refuse(io, "kubectl", "get all")
	}
	res, ok := resourceOf(io, kind)
	if !ok {
		return 1
	}
	// The corpus reads objects through -o jsonpath, and prints one
	// table, of services.
	format := fs.Get("-o", "--output")
	switch {
	case fs.Has("-A", "--all-namespaces"):
		return refuse(io, "kubectl", "get -A")
	case format == "" && res != kubesim.Service:
		return refuse(io, "kubectl", "get "+kind+" without -o jsonpath")
	case format != "" && !strings.HasPrefix(format, "jsonpath="):
		return refuse(io, "kubectl", "get -o "+format)
	}
	ns := e.namespaceOf(fs)
	sel, ok := e.selectorOf(fs, io)
	if !ok {
		return 1
	}
	items := e.docs[:0]
	if len(names) == 0 {
		items = e.Cluster.List(items, res, ns, sel)
	}
	for _, name := range names {
		n, ok := e.Cluster.GetByName(res, ns, name)
		if !ok {
			clear(items)
			writeNotFound(io, res.GroupResource, name)
			return 1
		}
		items = append(items, n)
	}
	e.docs = items
	defer clear(items)
	if len(items) == 0 && format == "" {
		writeNoResources(io, ns)
		return 0
	}
	return e.evalOutput(io, format, names, items)
}

// kubectlDescribe describes Ingresses by name, the one kind and form
// the corpus describes.
func (e *Env) kubectlDescribe(fs shell.FlagSet, io *shell.IO) int {
	if len(fs.Positional) < 1 {
		fmt.Fprintln(io.Err, "error: you must specify the type of resource to describe")
		return 1
	}
	kind, names := e.kindAndNames(fs.Positional)
	res, ok := resourceOf(io, kind)
	if !ok {
		return 1
	}
	switch {
	case len(names) == 0:
		return refuse(io, "kubectl", "describe by selector")
	case res != kubesim.Ingress:
		return refuse(io, "kubectl", "describe "+kind)
	}
	ns := e.namespaceOf(fs)
	code := 0
	for _, name := range names {
		out, err := e.Cluster.Describe(ns, name)
		if err != nil {
			io.Err.WriteError(err)
			code = 1
			continue
		}
		io.Out.WriteString(out)
	}
	return code
}

func (e *Env) kubectlWait(fs shell.FlagSet, io *shell.IO) int {
	forSpec := fs.Get("--for")
	cond, ok := strings.CutPrefix(forSpec, "condition=")
	if !ok {
		fmt.Fprintf(io.Err, "error: unrecognized --for spec %q\n", forSpec)
		return 1
	}
	// condition may carry "=True".
	cond = strings.TrimSuffix(cond, "=True")
	if len(fs.Positional) == 0 {
		fmt.Fprintln(io.Err, "error: you must specify the type of resource to wait on")
		return 1
	}
	kind, names := e.kindAndNames(fs.Positional)
	res, ok := resourceOf(io, kind)
	if !ok {
		return 1
	}
	sel, ok := e.selectorOf(fs, io)
	if !ok {
		return 1
	}
	timeout, ok := timeoutOf(fs, io, false)
	if !ok {
		return 1
	}
	opts := kubesim.WaitOptions{
		Resource:  res,
		Namespace: e.namespaceOf(fs),
		Names:     names,
		Selector:  sel,
		All:       fs.Has("--all"),
		Condition: cond,
		Timeout:   timeout,
	}
	if err := e.Cluster.WaitFor(opts); err != nil {
		io.Err.WriteError(err)
		return 1
	}
	lower := strings.ToLower(kind)
	for _, n := range names {
		io.Out.WriteStrings(lower, "/", n, " condition met\n")
	}
	if len(names) == 0 {
		io.Out.WriteStrings(lower, " condition met\n")
	}
	return 0
}

func (e *Env) kubectlLogs(fs shell.FlagSet, io *shell.IO) int {
	if len(fs.Positional) == 0 {
		fmt.Fprintln(io.Err, "error: expected a pod name")
		return 1
	}
	name := fs.Positional[0]
	n, ok := e.Cluster.GetByName(kubesim.Pod, e.namespaceOf(fs), name)
	if !ok {
		fmt.Fprintf(io.Err, "Error from server (NotFound): pods %q not found\n", name)
		return 1
	}
	img := n.Path("spec", "containers", 0, "image").ScalarString()
	io.Out.WriteStrings(name, ": container started (image ", img, ")\n")
	return 0
}

func (e *Env) kubectlRollout(fs shell.FlagSet, io *shell.IO) int {
	if len(fs.Positional) < 2 || fs.Positional[0] != "status" {
		fmt.Fprintln(io.Err, "error: only 'rollout status' is supported")
		return 1
	}
	kind, names := e.kindAndNames(fs.Positional[1:])
	if len(names) == 0 {
		e.names = append(e.names[:0], kind)
		kind, names = kubesim.Deployment.Singular, e.names
	}
	res, ok := resourceOf(io, kind)
	if !ok {
		return 1
	}
	timeout, ok := timeoutOf(fs, io, true)
	if !ok {
		return 1
	}
	opts := kubesim.WaitOptions{
		Resource:  res,
		Namespace: e.namespaceOf(fs),
		Names:     names[:1],
		Condition: "Available",
		Timeout:   timeout,
	}
	if err := e.Cluster.WaitFor(opts); err != nil {
		io.Err.WriteError(err)
		return 1
	}
	io.Out.WriteStrings(kind, " ")
	writeQuoted(io.Out, names[0])
	io.Out.WriteString(" successfully rolled out\n")
	return 0
}
