package k8scmd

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"text/tabwriter"

	"cloudeval/internal/kubesim"
	"cloudeval/internal/shell"
	"cloudeval/internal/yamlx"
)

// kubectl implements the kubectl subcommands the benchmark's unit tests
// use: apply, delete, create, get, describe, wait, logs and rollout, and
// api-resources, which lists the simulator's resource table.
func (e *Env) kubectl(in *shell.Interp, io *shell.IO, args []string) int {
	if len(args) == 0 {
		fmt.Fprintln(io.Err, "kubectl: missing subcommand")
		return 1
	}
	sub := args[0]
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
	case "api-resources":
		return kubectlAPIResources(fs, io)
	case "version":
		fmt.Fprintln(io.Out, "Client Version: v1.28.0 (kubesim)")
		return 0
	case "cluster-info":
		fmt.Fprintf(io.Out, "Kubernetes control plane is running at https://%s:8443\n", kubesim.NodeIP)
		return 0
	default:
		fmt.Fprintf(io.Err, "error: unknown command %q for \"kubectl\"\n", sub)
		return 1
	}
}

func (e *Env) kubectlApply(fs shell.FlagSet, io *shell.IO) int {
	src, err := e.readManifest(fs, io)
	if err != nil {
		fmt.Fprintln(io.Err, err)
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
		io.Err.WriteString(err.Error())
		io.Err.WriteByte('\n')
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
		src, err := e.readManifest(fs, io)
		if err != nil {
			fmt.Fprintln(io.Err, err)
			return 1
		}
		lines, err := e.Cluster.DeleteYAML(src, e.namespaceOf(fs))
		for _, ln := range lines {
			fmt.Fprintln(io.Out, ln)
		}
		if err != nil {
			fmt.Fprintf(io.Err, "%v\n", err)
			return 1
		}
		return 0
	}
	if len(fs.Positional) < 2 {
		fmt.Fprintln(io.Err, "error: resource(s) were provided, but no name was specified")
		return 1
	}
	kind := fs.Positional[0]
	res, ok := resourceOf(io, kind)
	if !ok {
		return 1
	}
	code := 0
	for _, name := range fs.Positional[1:] {
		switch err := e.Cluster.Delete(res, e.namespaceOf(fs), name); {
		case errors.Is(err, kubesim.ErrNotFound):
			writeNotFound(io, res.GroupResource, name)
			code = 1
		case err != nil:
			fmt.Fprintf(io.Err, "Error from server (NotFound): %v\n", err)
			code = 1
		default:
			fmt.Fprintf(io.Out, "%s %q deleted\n", strings.ToLower(kind), name)
		}
	}
	return code
}

// kubectlCreate creates what a manifest holds (-f), a namespace, or a
// role or cluster role granting --verb on --resource.
func (e *Env) kubectlCreate(fs shell.FlagSet, io *shell.IO) int {
	if fs.Get("-f", "--filename") != "" {
		return e.kubectlApply(fs, io)
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
	case "role":
		role = kubesim.Role
	default:
		fmt.Fprintf(io.Err, "error: unknown resource type %q for kubectl create\n", kind)
		return 1
	}
	if len(fs.Positional) < 2 {
		fmt.Fprintln(io.Err, "error: exactly one NAME is required")
		return 1
	}
	name := fs.Positional[1]
	if role == nil {
		if err := e.Cluster.CreateNamespace(name); err != nil {
			fmt.Fprintf(io.Err, "Error from server (AlreadyExists): %v\n", err)
			return 1
		}
		fmt.Fprintf(io.Out, "namespace/%s created\n", name)
		return 0
	}
	meta := yamlx.Map()
	meta.Set("name", yamlx.String(name))
	rule := yamlx.Map()
	rule.Set("apiGroups", yamlx.Seq(yamlx.String("")))
	rule.Set("verbs", listOf(fs.Get("--verb")))
	rule.Set("resources", listOf(fs.Get("--resource")))
	doc := yamlx.Map()
	doc.Set("apiVersion", yamlx.String(role.Versions[0]))
	doc.Set("kind", yamlx.String(role.Kind))
	doc.Set("metadata", meta)
	doc.Set("rules", yamlx.Seq(rule))
	if _, err := e.Cluster.Apply(doc, e.namespaceOf(fs)); err != nil {
		fmt.Fprintf(io.Err, "%v\n", err)
		return 1
	}
	io.Out.WriteString(role.Singular + strings.TrimPrefix(role.GroupResource, role.Plural) + "/" + name + " created\n")
	return 0
}

// listOf is a comma-separated flag value as a sequence, empty items
// dropped.
func listOf(csv string) *yamlx.Node {
	seq := yamlx.Seq()
	for _, v := range strings.Split(csv, ",") {
		if v != "" {
			seq.Append(yamlx.String(v))
		}
	}
	return seq
}

// selectorOf parses the command's -l/--selector into the storage of the
// last command's, which nothing holds once that command has returned.
// What kubectl cannot parse is its error and the command's failure,
// never a selector that matches everything.
func (e *Env) selectorOf(fs shell.FlagSet, io *shell.IO) (kubesim.Selector, bool) {
	sel, err := kubesim.AppendSelector(e.sel[:0], fs.Get("-l", "--selector"))
	if err != nil {
		io.Err.WriteString("error: " + err.Error() + "\n")
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
// there; resource is its row's GroupResource ("all" for get all).
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
	kind := fs.Positional[0]
	names := fs.Positional[1:]
	// "kubectl get deploy/name" form.
	if strings.Contains(kind, "/") {
		parts := strings.SplitN(kind, "/", 2)
		kind, names = parts[0], append([]string{parts[1]}, names...)
	}
	// "all" names a category of kinds, not a kind. The simulator has
	// always answered it as a kind with no objects (res stays nil), and
	// scripts print what it says, so it still does.
	var res *kubesim.Resource
	if kind != "all" {
		var ok bool
		if res, ok = resourceOf(io, kind); !ok {
			return 1
		}
	}
	ns := e.namespaceOf(fs)
	if fs.Has("-A", "--all-namespaces") {
		ns = "*"
	}
	sel, ok := e.selectorOf(fs, io)
	if !ok {
		return 1
	}
	format := fs.Get("-o", "--output")
	var items []*yamlx.Node
	switch {
	case res == nil && len(names) > 0:
		writeNotFound(io, kind, names[0])
		return 1
	case len(names) > 0:
		items = e.named[:0]
		for _, name := range names {
			n, ok := e.Cluster.GetByName(res, ns, name)
			if !ok {
				writeNotFound(io, res.GroupResource, name)
				return 1
			}
			items = append(items, n)
		}
		e.named = items
		defer clear(items)
	case res != nil:
		items = e.Cluster.List(res, ns, sel)
	}
	if len(items) == 0 && format == "" {
		writeNoResources(io, ns)
		return 0
	}
	return e.evalOutput(io, format, res, names, items)
}

func (e *Env) kubectlDescribe(fs shell.FlagSet, io *shell.IO) int {
	if len(fs.Positional) < 1 {
		fmt.Fprintln(io.Err, "error: you must specify the type of resource to describe")
		return 1
	}
	kind := fs.Positional[0]
	var names []string
	if strings.Contains(kind, "/") {
		parts := strings.SplitN(kind, "/", 2)
		kind, names = parts[0], []string{parts[1]}
	} else {
		names = fs.Positional[1:]
	}
	res, ok := resourceOf(io, kind)
	if !ok {
		return 1
	}
	ns := e.namespaceOf(fs)
	if len(names) == 0 {
		sel, ok := e.selectorOf(fs, io)
		if !ok {
			return 1
		}
		for _, o := range e.Cluster.ListObjects(res, ns, sel) {
			names = append(names, o.Name)
		}
	}
	if len(names) == 0 {
		writeNoResources(io, ns)
		return 1
	}
	code := 0
	for _, name := range names {
		out, err := e.Cluster.Describe(res, ns, name)
		if err != nil {
			fmt.Fprintln(io.Err, err)
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
	kind, names := fs.Positional[0], fs.Positional[1:]
	if k, name, ok := strings.Cut(kind, "/"); ok {
		kind, names = k, append([]string{name}, names...)
	}
	res, ok := resourceOf(io, kind)
	if !ok {
		return 1
	}
	sel, ok := e.selectorOf(fs, io)
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
		Timeout:   parseTimeout(fs.Get("--timeout")),
	}
	if err := e.Cluster.WaitFor(opts); err != nil {
		io.Err.WriteString(err.Error())
		io.Err.WriteByte('\n')
		return 1
	}
	lower := strings.ToLower(kind)
	for _, n := range names {
		io.Out.WriteString(lower + "/" + n + " condition met\n")
	}
	if len(names) == 0 {
		io.Out.WriteString(lower + " condition met\n")
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
	fmt.Fprintf(io.Out, "%s: container started (image %s)\n", name, img)
	return 0
}

func (e *Env) kubectlRollout(fs shell.FlagSet, io *shell.IO) int {
	if len(fs.Positional) < 2 || fs.Positional[0] != "status" {
		fmt.Fprintln(io.Err, "error: only 'rollout status' is supported")
		return 1
	}
	target := fs.Positional[1]
	kind, name := kubesim.Deployment.Singular, target
	if strings.Contains(target, "/") {
		parts := strings.SplitN(target, "/", 2)
		kind, name = parts[0], parts[1]
	}
	res, ok := resourceOf(io, kind)
	if !ok {
		return 1
	}
	opts := kubesim.WaitOptions{
		Resource:  res,
		Namespace: e.namespaceOf(fs),
		Names:     []string{name},
		Condition: "Available",
		Timeout:   parseTimeout(fs.Get("--timeout")),
	}
	if err := e.Cluster.WaitFor(opts); err != nil {
		fmt.Fprintln(io.Err, err)
		return 1
	}
	fmt.Fprintf(io.Out, "%s %q successfully rolled out\n", kind, name)
	return 0
}

// kubectlAPIResources prints the resource table: every kind the
// simulator serves, with the names kubectl knows it by.
func kubectlAPIResources(fs shell.FlagSet, io *shell.IO) int {
	switch format := fs.Get("-o", "--output"); format {
	case "name":
		for _, r := range kubesim.Resources {
			io.Out.WriteString(r.Plural + "\n")
		}
	case "":
		w := tabwriter.NewWriter(io.Out, 0, 8, 3, ' ', 0)
		fmt.Fprintln(w, "NAME\tSHORTNAMES\tAPIVERSION\tNAMESPACED\tKIND")
		for _, r := range kubesim.Resources {
			fmt.Fprintf(w, "%s\t%s\t%s\t%t\t%s\n", r.Plural, strings.Join(r.ShortNames, ","), r.Versions[0], r.Namespaced, r.Kind)
		}
		w.Flush()
	default:
		fmt.Fprintf(io.Err, "error: --output %s is not available\n", format)
		return 1
	}
	return 0
}
