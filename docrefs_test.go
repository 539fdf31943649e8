package cloudeval_test

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// docRefFiles are the documents whose backticked Go identifiers must
// name code that exists.
var docRefFiles = []string{"DESIGN.md", "API.md", "CONTRIBUTING.md"}

// docRefAllowed are backticked spans of the pkg.Name form or one
// camelCase word that are not Go identifiers, each with the reason it
// is kept.
var docRefAllowed = map[string]string{
	"store.get":    "a bench --trace layer, the span store.get_us_per_op times",
	"store.getgen": "a bench --trace layer, the span store.getgen_us_per_op times",
	"GetX":         "a placeholder: the Get method a new store record kind adds",
	"PutX":         "a placeholder: the Put method a new store record kind adds",
	"apiVersion":   "a manifest's top-level field, not a Go name",
}

// qualifiedRef is a backticked span that is one qualified identifier:
// (*pkg.T).M, pkg.Name or pkg.T.Sel, optionally followed by a call's
// parenthesized arguments.
var qualifiedRef = regexp.MustCompile(`^(?:\(\*(\w+)\.(\w+)\)\.(\w+)|(\w+)\.(\w+)(?:\.(\w+))?)(?:\(.*\))?$`)

// bareRef is a backticked span that is one camelCase or PascalCase
// word of at least two humps (runQuery, NumError, HTTPProbe, IPv4),
// optionally followed by (): a Go name written without its package.
var bareRef = regexp.MustCompile(`^([a-z][a-z0-9]*[A-Z][A-Za-z0-9]*|[A-Z][A-Za-z0-9]*(?:[a-z][A-Z]|[A-Z][a-z])[A-Za-z0-9]*)(?:\(\))?$`)

// codeSpan is one inline code span of a markdown line.
var codeSpan = regexp.MustCompile("`([^`]+)`")

// TestDocIdentifiersResolve holds the documents to the code: every
// backticked pkg.Name, pkg.Name(), pkg.T.Sel or (*pkg.T).M whose pkg is
// a package of this module must name a declaration of that package or
// its tests (and Sel or M a field or method of T), and every backticked
// camelCase or PascalCase word must name a declaration somewhere in the
// module, so a doc that still names deleted or renamed code fails here.
// File names (x.go) and BENCHMARK.json's per-layer metric names are not
// identifiers.
func TestDocIdentifiersResolve(t *testing.T) {
	pkgs, names := moduleDecls(t)
	layerMetrics := benchLayerMetrics(t)
	for _, doc := range docRefFiles {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		fenced := false
		for n, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			if fenced {
				continue
			}
			for _, m := range codeSpan.FindAllStringSubmatch(line, -1) {
				span := m[1]
				if docRefAllowed[span] != "" {
					continue
				}
				if word := bareRef.FindStringSubmatch(span); word != nil {
					if !names[word[1]] {
						t.Errorf("%s:%d: `%s` names no declaration of the module", doc, n+1, span)
					}
					continue
				}
				ref := qualifiedRef.FindStringSubmatch(span)
				if ref == nil || strings.HasSuffix(span, ".go") || layerMetrics[span] {
					continue
				}
				pkg, name, sel := ref[4], ref[5], ref[6]
				if ref[1] != "" {
					pkg, name, sel = ref[1], ref[2], ref[3]
				}
				decls, ok := pkgs[pkg]
				if !ok {
					continue
				}
				if !decls.resolves(name, sel) {
					t.Errorf("%s:%d: `%s` names nothing in package %s", doc, n+1, span, pkg)
				}
			}
		}
	}
}

// pkgDecls is what one package name declares across the module: its
// top-level names, and each type's fields and methods.
type pkgDecls struct {
	top     map[string]bool
	members map[string]map[string]bool
}

func (d pkgDecls) resolves(name, sel string) bool {
	if !d.top[name] {
		return false
	}
	if sel == "" {
		return true
	}
	members, isType := d.members[name]
	return !isType || members[sel]
}

// typ is the member set of type name, made empty on first use.
func (d pkgDecls) typ(name string) map[string]bool {
	if d.members[name] == nil {
		d.members[name] = map[string]bool{}
	}
	return d.members[name]
}

// moduleDecls parses every package of the module, tests included
// (bench/ is a module of its own). It indexes the declarations of each
// non-main package by package name, and returns every name declared
// anywhere: top-level names, fields and methods, and each Benchmark
// function under its suffix too, as benchguard and -bench patterns name
// it. A Test or Fuzz function is named in full.
func moduleDecls(t *testing.T) (map[string]pkgDecls, map[string]bool) {
	pkgs := map[string]pkgDecls{}
	fset := token.NewFileSet()
	for _, path := range moduleGoFiles(t) {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		name := strings.TrimSuffix(f.Name.Name, "_test")
		d, ok := pkgs[name]
		if !ok {
			d = pkgDecls{top: map[string]bool{}, members: map[string]map[string]bool{}}
			pkgs[name] = d
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					d.top[decl.Name.Name] = true
					continue
				}
				d.typ(receiverType(decl.Recv.List[0].Type))[decl.Name.Name] = true
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							d.top[n.Name] = true
						}
					case *ast.TypeSpec:
						d.top[spec.Name.Name] = true
						typeMembers(d.typ(spec.Name.Name), spec.Type)
					}
				}
			}
		}
	}
	names := map[string]bool{}
	for _, d := range pkgs {
		for n := range d.top {
			names[n] = true
			if suffix, ok := strings.CutPrefix(n, "Benchmark"); ok {
				names[suffix] = true
			}
		}
		for _, members := range d.members {
			for m := range members {
				names[m] = true
			}
		}
	}
	delete(pkgs, "main")
	return pkgs, names
}

// moduleGoFiles lists the module's Go files, tests included; bench/ is
// a module of its own.
func moduleGoFiles(t *testing.T) []string {
	var files []string
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if name := e.Name(); path != "." && (name == "bench" || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// receiverType is the type name of a method receiver: T, *T, T[P] or *T[P].
func receiverType(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

// typeMembers records a struct's fields or an interface's methods,
// embedded ones under their type's name.
func typeMembers(members map[string]bool, x ast.Expr) {
	var fields *ast.FieldList
	switch x := x.(type) {
	case *ast.StructType:
		fields = x.Fields
	case *ast.InterfaceType:
		fields = x.Methods
	default:
		return
	}
	for _, f := range fields.List {
		for _, n := range f.Names {
			members[n.Name] = true
		}
		if len(f.Names) == 0 {
			members[embeddedName(f.Type)] = true
		}
	}
}

// embeddedName is the field name an embedded type gets: T for T, *T,
// pkg.T and *pkg.T.
func embeddedName(x ast.Expr) string {
	if s, ok := x.(*ast.StarExpr); ok {
		x = s.X
	}
	if s, ok := x.(*ast.SelectorExpr); ok {
		return s.Sel.Name
	}
	return receiverType(x)
}

// benchLayerMetrics is the set of BENCHMARK.json's per-layer metric
// names: they read as pkg.name but name a measurement, not code.
func benchLayerMetrics(t *testing.T) map[string]bool {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, m := range manifest.PerLayer {
		out[m.Name] = true
	}
	return out
}

// apiHeading is an API.md route heading: ### `METHOD /path`.
var apiHeading = regexp.MustCompile("^### `([A-Z]+ /[^`]*)`$")

// TestAPIRoutesMatchMux holds API.md to the daemon's mux: the routes
// its ### `METHOD /path` headings document are exactly the patterns
// internal/server passes to (*Server).handle, so a route can neither
// land undocumented nor linger in the document after it is gone.
func TestAPIRoutesMatchMux(t *testing.T) {
	data, err := os.ReadFile("API.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		if m := apiHeading.FindStringSubmatch(line); m != nil {
			documented[m[1]] = true
		}
	}

	served := map[string]bool{}
	files, err := filepath.Glob(filepath.Join("internal", "server", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || sel.Sel.Name != "handle" {
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				t.Errorf("%s: handle's pattern is not a string literal", fset.Position(call.Pos()))
				return true
			}
			pattern, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Fatal(err)
			}
			served[pattern] = true
			return true
		})
	}

	if len(served) == 0 {
		t.Fatal("found no (*Server).handle call in internal/server")
	}
	for p := range served {
		if !documented[p] {
			t.Errorf("route %q is served but API.md has no ### `%s` heading", p, p)
		}
	}
	for p := range documented {
		if !served[p] {
			t.Errorf("API.md documents %q, which internal/server does not serve", p)
		}
	}
}

// designCitation is a citation of a DESIGN.md section by its number,
// allowing a line break (and a comment's slashes) before the §.
var designCitation = regexp.MustCompile(`DESIGN\.md[\s/]*§\s*([0-9]+(?:\.[0-9]+)*)`)

// designHeading is a numbered DESIGN.md heading, "## 2. …" or "### 2.4 …".
var designHeading = regexp.MustCompile(`^#{2,} ([0-9]+(?:\.[0-9]+)*)\.? `)

// TestDesignCitationsResolve holds every citation of a DESIGN.md
// section by number, in the module's Go files and in the documents
// other than DESIGN.md, to a numbered heading DESIGN.md has, so
// renumbering the document cannot leave a comment pointing at nothing.
// CHANGES.md is a record of how things were and is not read.
func TestDesignCitationsResolve(t *testing.T) {
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		if m := designHeading.FindStringSubmatch(line); m != nil {
			sections[m[1]] = true
		}
	}
	files := append(moduleGoFiles(t), "ROADMAP.md")
	for _, doc := range docRefFiles {
		if doc != "DESIGN.md" {
			files = append(files, doc)
		}
	}
	cited := 0
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range designCitation.FindAllSubmatchIndex(data, -1) {
			cited++
			if n := string(data[m[2]:m[3]]); !sections[n] {
				line := 1 + strings.Count(string(data[:m[0]]), "\n")
				t.Errorf("%s:%d: DESIGN.md has no section %s", path, line, n)
			}
		}
	}
	if cited == 0 {
		t.Fatal("found no DESIGN.md § citation; the pattern no longer matches how they are written")
	}
}

// oraclePackages are the packages ci/oracle-reach.txt files, under
// internal/.
var oraclePackages = []string{"shell", "kubesim", "k8scmd", "composesim", "helmsim", "envoysim", "jsonpath", "yamlx"}

// TestReachTableNamesUncoveredRows holds DESIGN.md §2.6's "Why it stays"
// table to ci/oracle-reach.txt: every function of the oracle packages
// that only a transcript golden reaches (filed golden) or no test at all
// (nothing) must be named in the table's Functions column, so code the
// corpus does not run stays only with a stated reason; and every name
// the column gives must be a function or method of those packages, so
// the table cannot keep a reason for code that is gone. A name ending
// in * stands for every function with that prefix.
func TestReachTableNamesUncoveredRows(t *testing.T) {
	named := reachTableFunctions(t)
	defined := oracleFunctions(t)
	for name := range named {
		prefix, glob := strings.CutSuffix(name, "*")
		found := defined[name]
		for fn := range defined {
			found = found || glob && strings.HasPrefix(fn, prefix)
		}
		if !found {
			t.Errorf("DESIGN.md §2.6's reasons table names %s, which no oracle package defines", name)
		}
	}
	data, err := os.ReadFile("ci/oracle-reach.txt")
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) != 4 || strings.HasPrefix(line, "#") {
			continue
		}
		rows++
		if f[0] != "golden" && f[0] != "nothing" {
			continue
		}
		fn := f[3]
		ok := named[fn]
		for name := range named {
			prefix, glob := strings.CutSuffix(name, "*")
			ok = ok || glob && strings.HasPrefix(fn, prefix)
		}
		if !ok {
			t.Errorf("ci/oracle-reach.txt files %s (%s) as %s, and DESIGN.md §2.6's reasons table gives no reason it stays", fn, f[2], f[0])
		}
	}
	if rows == 0 {
		t.Fatal("read no rows from ci/oracle-reach.txt; its format no longer matches")
	}
}

// reachTableFunctions returns the backticked names of the Functions
// column of DESIGN.md's "| Surface | Functions | Why it stays |" table.
func reachTableFunctions(t *testing.T) map[string]bool {
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	in := false
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "| Surface | Functions | Why it stays |") {
			in = true
			continue
		}
		if !in {
			continue
		}
		if !strings.HasPrefix(line, "|") {
			break
		}
		cells := tableCells(line)
		if len(cells) != 3 || strings.HasPrefix(cells[1], "---") {
			continue
		}
		for _, m := range codeSpan.FindAllStringSubmatch(cells[1], -1) {
			names[m[1]] = true
		}
	}
	if len(names) == 0 {
		t.Fatal("found no reasons table in DESIGN.md")
	}
	return names
}

// tableCells splits a markdown table row into its trimmed cells; a |
// inside a code span does not split.
func tableCells(row string) []string {
	var cells []string
	start, code := 1, false
	for i := 1; i < len(row); i++ {
		switch row[i] {
		case '`':
			code = !code
		case '|':
			if !code {
				cells = append(cells, strings.TrimSpace(row[start:i]))
				start = i + 1
			}
		}
	}
	return cells
}

// oracleFunctions returns the names of the functions and methods the
// oracle packages' non-test files declare.
func oracleFunctions(t *testing.T) map[string]bool {
	fns := map[string]bool{}
	fset := token.NewFileSet()
	for _, pkg := range oraclePackages {
		files, err := filepath.Glob(filepath.Join("internal", pkg, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok {
					fns[fn.Name.Name] = true
				}
			}
		}
	}
	return fns
}
