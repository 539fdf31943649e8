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
	var buf flagBuf
	fs := parseFlags(args[1:], &buf)
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

func (e *Env) kubectlApply(fs flagSet, io *shell.IO) int {
	src, err := e.readManifest(fs, io)
	if err != nil {
		fmt.Fprintln(io.Err, err)
		return 1
	}
	results, err := e.Cluster.ApplyYAML(src, e.namespaceOf(fs))
	for _, r := range results {
		io.Out.WriteString(r.String())
		io.Out.WriteByte('\n')
	}
	if err != nil {
		io.Err.WriteString("Error from server (BadRequest): error when creating ")
		writeQuoted(io.Err, fs.get("-f", "--filename"))
		io.Err.WriteString(": " + err.Error() + "\n")
		return 1
	}
	return 0
}

// writeQuoted writes s as fmt's %q would.
func writeQuoted(w *strings.Builder, s string) {
	var buf [64]byte
	w.Write(strconv.AppendQuote(buf[:0], s))
}

func (e *Env) kubectlDelete(fs flagSet, io *shell.IO) int {
	if fs.get("-f", "--filename") != "" {
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
	if len(fs.positional) < 2 {
		fmt.Fprintln(io.Err, "error: resource(s) were provided, but no name was specified")
		return 1
	}
	kind := fs.positional[0]
	res, ok := resourceOf(io, kind)
	if !ok {
		return 1
	}
	code := 0
	for _, name := range fs.positional[1:] {
		switch err := e.Cluster.Delete(res, e.namespaceOf(fs), name); {
		case errors.Is(err, kubesim.ErrNotFound):
			writeNotFound(io, kind, name)
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

func (e *Env) kubectlCreate(fs flagSet, io *shell.IO) int {
	if fs.get("-f", "--filename") != "" {
		return e.kubectlApply(fs, io)
	}
	if len(fs.positional) == 0 {
		fmt.Fprintln(io.Err, "error: you must specify resources to create")
		return 1
	}
	kind := strings.ToLower(fs.positional[0])
	switch kind {
	case "ns", "namespace":
		if len(fs.positional) < 2 {
			fmt.Fprintln(io.Err, "error: exactly one NAME is required")
			return 1
		}
		name := fs.positional[1]
		if err := e.Cluster.CreateNamespace(name); err != nil {
			fmt.Fprintf(io.Err, "Error from server (AlreadyExists): %v\n", err)
			return 1
		}
		fmt.Fprintf(io.Out, "namespace/%s created\n", name)
		return 0
	case "secret":
		return e.createKVResource(kubesim.Secret, fs, io)
	case "configmap", "cm":
		return e.createKVResource(kubesim.ConfigMap, fs, io)
	case "serviceaccount", "sa":
		return e.createSimple(kubesim.ServiceAccount, fs, io)
	case "clusterrole":
		return e.createRBACRole(kubesim.ClusterRole, fs, io)
	case "role":
		return e.createRBACRole(kubesim.Role, fs, io)
	case "deployment", "deploy":
		return e.createDeployment(fs, io)
	default:
		fmt.Fprintf(io.Err, "error: unknown resource type %q for kubectl create\n", kind)
		return 1
	}
}

func (e *Env) createKVResource(r *kubesim.Resource, fs flagSet, io *shell.IO) int {
	pos := fs.positional[1:]
	// "kubectl create secret generic NAME" has a subtype positional.
	if r == kubesim.Secret {
		if len(pos) == 0 || pos[0] != "generic" && pos[0] != "tls" && pos[0] != "docker-registry" {
			fmt.Fprintln(io.Err, "error: you must specify a secret type (generic)")
			return 1
		}
		pos = pos[1:]
	}
	if len(pos) == 0 {
		fmt.Fprintln(io.Err, "error: exactly one NAME is required")
		return 1
	}
	name := pos[0]
	doc := newManifest(r, name)
	data := yamlx.Map()
	for _, kv := range strings.Split(fs.get("--from-literal"), "\x00") {
		if kv == "" {
			continue
		}
		parts := strings.SplitN(kv, "=", 2)
		if len(parts) == 2 {
			v := yamlx.String(parts[1])
			v.Quoted = true
			data.Set(parts[0], v)
		}
	}
	if r == kubesim.Secret {
		doc.Set("stringData", data)
		doc.Set("type", yamlx.String("Opaque"))
	} else {
		doc.Set("data", data)
	}
	return e.createFrom(doc, r.Singular+"/"+name, fs, io)
}

// newManifest is the head of a manifest kubectl create builds: the row's
// preferred apiVersion, its Kind and the name.
func newManifest(r *kubesim.Resource, name string) *yamlx.Node {
	doc := yamlx.Map()
	doc.Set("apiVersion", yamlx.String(r.Versions[0]))
	doc.Set("kind", yamlx.String(r.Kind))
	meta := yamlx.Map()
	meta.Set("name", yamlx.String(name))
	doc.Set("metadata", meta)
	return doc
}

// createFrom applies what kubectl create built and reports it as created.
func (e *Env) createFrom(doc *yamlx.Node, created string, fs flagSet, io *shell.IO) int {
	if _, err := e.Cluster.Apply(doc, e.namespaceOf(fs)); err != nil {
		fmt.Fprintf(io.Err, "%v\n", err)
		return 1
	}
	io.Out.WriteString(created + " created\n")
	return 0
}

func (e *Env) createSimple(r *kubesim.Resource, fs flagSet, io *shell.IO) int {
	if len(fs.positional) < 2 {
		fmt.Fprintln(io.Err, "error: exactly one NAME is required")
		return 1
	}
	name := fs.positional[1]
	return e.createFrom(newManifest(r, name), r.Singular+"/"+name, fs, io)
}

func (e *Env) createRBACRole(r *kubesim.Resource, fs flagSet, io *shell.IO) int {
	if len(fs.positional) < 2 {
		fmt.Fprintln(io.Err, "error: exactly one NAME is required")
		return 1
	}
	name := fs.positional[1]
	doc := newManifest(r, name)
	rule := yamlx.Map()
	apiGroups := yamlx.Seq(yamlx.String(""))
	rule.Set("apiGroups", apiGroups)
	verbs := yamlx.Seq()
	for _, v := range strings.Split(fs.get("--verb"), ",") {
		if v != "" {
			verbs.Append(yamlx.String(v))
		}
	}
	rule.Set("verbs", verbs)
	resources := yamlx.Seq()
	for _, r := range strings.Split(fs.get("--resource"), ",") {
		if r != "" {
			resources.Append(yamlx.String(r))
		}
	}
	rule.Set("resources", resources)
	doc.Set("rules", yamlx.Seq(rule))
	return e.createFrom(doc, r.Singular+".rbac.authorization.k8s.io/"+name, fs, io)
}

func (e *Env) createDeployment(fs flagSet, io *shell.IO) int {
	if len(fs.positional) < 2 {
		fmt.Fprintln(io.Err, "error: exactly one NAME is required")
		return 1
	}
	name := fs.positional[1]
	image := fs.get("--image")
	if image == "" {
		fmt.Fprintln(io.Err, "error: --image is required")
		return 1
	}
	src := fmt.Sprintf(`apiVersion: apps/v1
kind: Deployment
metadata:
  name: %s
  labels:
    app: %s
spec:
  replicas: 1
  selector:
    matchLabels:
      app: %s
  template:
    metadata:
      labels:
        app: %s
    spec:
      containers:
      - name: %s
        image: %s
`, name, name, name, name, name, image)
	if _, err := e.Cluster.ApplyYAML(src, e.namespaceOf(fs)); err != nil {
		fmt.Fprintf(io.Err, "%v\n", err)
		return 1
	}
	fmt.Fprintf(io.Out, "deployment.apps/%s created\n", name)
	return 0
}

// selectorOf parses the command's -l/--selector. What kubectl cannot
// parse is its error and the command's failure, never a selector that
// matches everything.
func selectorOf(fs flagSet, io *shell.IO) (kubesim.Selector, bool) {
	sel, err := kubesim.ParseSelector(fs.get("-l", "--selector"))
	if err != nil {
		io.Err.WriteString("error: " + err.Error() + "\n")
		return nil, false
	}
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

func writeNotFound(io *shell.IO, kind, name string) {
	io.Err.WriteString("Error from server (NotFound): " + strings.ToLower(kind) + " ")
	writeQuoted(io.Err, name)
	io.Err.WriteString(" not found\n")
}

func writeNoResources(io *shell.IO, ns string) {
	io.Err.WriteString("No resources found in " + ns + " namespace.\n")
}

func (e *Env) kubectlGet(fs flagSet, io *shell.IO) int {
	if len(fs.positional) == 0 {
		fmt.Fprintln(io.Err, "error: you must specify the type of resource to get")
		return 1
	}
	kind := fs.positional[0]
	names := fs.positional[1:]
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
	if fs.has("-A") || fs.has("--all-namespaces") {
		ns = "*"
	}
	sel, ok := selectorOf(fs, io)
	if !ok {
		return 1
	}
	format := fs.get("-o", "--output")
	var items []*yamlx.Node
	switch {
	case res == nil && len(names) > 0:
		writeNotFound(io, kind, names[0])
		return 1
	case len(names) > 0:
		items = make([]*yamlx.Node, 0, len(names))
		for _, name := range names {
			n, ok := e.Cluster.GetByName(res, ns, name)
			if !ok {
				writeNotFound(io, kind, name)
				return 1
			}
			items = append(items, n)
		}
	case res != nil:
		items = e.Cluster.List(res, ns, sel)
	}
	if len(items) == 0 && format == "" {
		writeNoResources(io, ns)
		return 0
	}
	return evalOutput(io, format, res, names, items)
}

func (e *Env) kubectlDescribe(fs flagSet, io *shell.IO) int {
	if len(fs.positional) < 1 {
		fmt.Fprintln(io.Err, "error: you must specify the type of resource to describe")
		return 1
	}
	kind := fs.positional[0]
	var names []string
	if strings.Contains(kind, "/") {
		parts := strings.SplitN(kind, "/", 2)
		kind, names = parts[0], []string{parts[1]}
	} else {
		names = fs.positional[1:]
	}
	res, ok := resourceOf(io, kind)
	if !ok {
		return 1
	}
	ns := e.namespaceOf(fs)
	if len(names) == 0 {
		sel, ok := selectorOf(fs, io)
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

func (e *Env) kubectlWait(fs flagSet, io *shell.IO) int {
	forSpec := fs.get("--for")
	cond, ok := strings.CutPrefix(forSpec, "condition=")
	if !ok {
		fmt.Fprintf(io.Err, "error: unrecognized --for spec %q\n", forSpec)
		return 1
	}
	// condition may carry "=True".
	cond = strings.TrimSuffix(cond, "=True")
	if len(fs.positional) == 0 {
		fmt.Fprintln(io.Err, "error: you must specify the type of resource to wait on")
		return 1
	}
	kind, names := fs.positional[0], fs.positional[1:]
	if k, name, ok := strings.Cut(kind, "/"); ok {
		kind, names = k, append([]string{name}, names...)
	}
	res, ok := resourceOf(io, kind)
	if !ok {
		return 1
	}
	sel, ok := selectorOf(fs, io)
	if !ok {
		return 1
	}
	opts := kubesim.WaitOptions{
		Resource:  res,
		Namespace: e.namespaceOf(fs),
		Names:     names,
		Selector:  sel,
		All:       fs.has("--all"),
		Condition: cond,
		Timeout:   parseTimeout(fs.get("--timeout")),
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

func (e *Env) kubectlLogs(fs flagSet, io *shell.IO) int {
	if len(fs.positional) == 0 {
		fmt.Fprintln(io.Err, "error: expected a pod name")
		return 1
	}
	name := fs.positional[0]
	n, ok := e.Cluster.GetByName(kubesim.Pod, e.namespaceOf(fs), name)
	if !ok {
		fmt.Fprintf(io.Err, "Error from server (NotFound): pods %q not found\n", name)
		return 1
	}
	img := n.Path("spec", "containers", 0, "image").ScalarString()
	fmt.Fprintf(io.Out, "%s: container started (image %s)\n", name, img)
	return 0
}

func (e *Env) kubectlRollout(fs flagSet, io *shell.IO) int {
	if len(fs.positional) < 2 || fs.positional[0] != "status" {
		fmt.Fprintln(io.Err, "error: only 'rollout status' is supported")
		return 1
	}
	target := fs.positional[1]
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
		Timeout:   parseTimeout(fs.get("--timeout")),
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
func kubectlAPIResources(fs flagSet, io *shell.IO) int {
	switch format := fs.get("-o", "--output"); format {
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
