package scenario_test

import (
	"errors"
	"io/fs"
	"maps"
	"os"
	"strings"
	"testing"
	"time"

	"cloudeval/internal/dataset"
	"cloudeval/internal/scenario"
	"cloudeval/internal/shell"
	"cloudeval/internal/unittest"
)

// section writes a transcript section's title to b, installs files in
// env and returns a recorder on env: what its scripts print, the
// virtual time they take and their exit codes, rendered by
// unittest.Recorder.Transcribe.
func section(b *strings.Builder, env scenario.Env, title string, files map[string]string) *unittest.Recorder {
	for name, content := range files {
		env.Interp().FS[name] = content
	}
	b.WriteString("\n### " + title + "\n")
	return unittest.NewRecorder(env.Interp(), env.Now)
}

// checkTranscript compares a transcript with its golden file. When the
// file is missing it records it and fails: delete a golden to record it
// again, and review the diff.
func checkTranscript(t *testing.T, golden, got string) {
	want, err := os.ReadFile(golden)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("recorded %s (%d bytes): review it and run the test again", golden, len(got))
	}
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	// One block per command: report the commands whose output changed.
	gotCmds, wantCmds := strings.Split(got, "\n$ "), strings.Split(string(want), "\n$ ")
	if len(gotCmds) != len(wantCmds) {
		t.Fatalf("%d commands run, %s has %d", len(gotCmds), golden, len(wantCmds))
	}
	reported := 0
	for i := range gotCmds {
		if gotCmds[i] != wantCmds[i] && reported < 10 {
			t.Errorf("output differs from %s:\n--- got\n$ %s\n--- want\n$ %s", golden, gotCmds[i], wantCmds[i])
			reported++
		}
	}
}

// bareShell is an interpreter with the shell's own builtins only, on a
// virtual clock that sleep and timeout advance.
type bareShell struct {
	sh  *shell.Interp
	now time.Time
}

func newBareShell() scenario.Env {
	b := &bareShell{sh: shell.New()}
	b.sh.AdvanceClock = func(d time.Duration) { b.now = b.now.Add(d) }
	return b
}

func (b *bareShell) Interp() *shell.Interp { return b.sh }
func (b *bareShell) Now() time.Time        { return b.now }
func (b *bareShell) Reset()                { b.sh.Reset(); b.now = time.Time{} }

const podsTable = `NAME          READY   STATUS
web-1         1/1     Running
web-2         0/1     Pending
db-0          1/1     Running
`

// TestShellTranscripts pins what the shell's own commands and syntax
// print, byte for byte: the idioms of the corpus's unit tests (echo,
// cat, grep, pipes to wc and head, [ ] and [[ ]], loops with sleep,
// substitutions, redirects), their error cases, parse errors included,
// and one refusal for each form the shell does not read.
func TestShellTranscripts(t *testing.T) {
	var (
		b   strings.Builder
		rec *unittest.Recorder
	)
	newEnv := newBareShell

	rec = section(&b, newEnv(), "echo and cat", map[string]string{"f.txt": "one\ntwo\n", "nonl.txt": "no newline"})
	rec.Transcribe(&b,
		`echo hello   world`,
		`echo -n no newline`,
		`echo 'a\tb'`,
		`echo`,
		`echo -- -n`,
		`cat f.txt`,
		`cat f.txt nonl.txt`,
		`cat < f.txt`,
		`echo piped | cat`,
		`echo piped | cat - f.txt`,
		`cat missing.txt`,
		`cat f.txt missing.txt f.txt`,
	)

	rec = section(&b, newEnv(), "grep", map[string]string{"pods.txt": podsTable})
	rec.Transcribe(&b,
		`grep Running pods.txt`,
		`grep -c Running pods.txt`,
		`grep -q Pending pods.txt && echo found`,
		`grep -q Failed pods.txt || echo absent`,
		`grep -E 'web|db' pods.txt`,
		`cat pods.txt | grep web | grep -c Running`,
		`grep -c absent pods.txt`,
		`grep Running pods.txt missing.txt`,
		`grep 'a[' pods.txt`,
		`echo 'a[b' | grep 'a['`,
		`echo -n '' | grep x`,
		`grep`,
		`grep -q`,
	)

	rec = section(&b, newEnv(), "wc and head", map[string]string{
		"pods.txt":   podsTable,
		"twelve.txt": "1\n2\n3\n4\n5\n6\n7\n8\n9\n10\n11\n12\n",
	})
	rec.Transcribe(&b,
		`wc -l pods.txt`,
		`cat pods.txt | wc -l`,
		`wc pods.txt`,
		`echo -n 'a b' | wc`,
		`echo -n '' | wc -l`,
		`echo -n 'no newline' | wc -l`,
		`grep Running pods.txt | wc -l`,
		`head -n 2 pods.txt`,
		`head -2 pods.txt`,
		`head -n2 pods.txt`,
		`head -n -1 pods.txt`,
		`head -n -9 pods.txt`,
		`cat pods.txt | head -n 1`,
		`head twelve.txt`,
		`head -n x pods.txt`,
	)

	rec = section(&b, newEnv(), "sleep and timeout", nil)
	rec.Transcribe(&b,
		`sleep 5`,
		`sleep 0.5`,
		`sleep 2m`,
		`sleep 1h`,
		`sleep`,
		`sleep soon`,
		`timeout 10s echo done`,
		`timeout -s INT 5 echo done`,
		`timeout 3 sleep 1`,
		`timeout`,
		`timeout -s`,
		`timeout 5`,
		`timeout soon echo x`,
		`timeout 5 no-such-command`,
	)

	rec = section(&b, newEnv(), "variables and substitution", nil)
	rec.Transcribe(&b,
		`x=hello; echo $x ${x} "$x" '$x'`,
		`echo $?; false; echo $?`,
		`echo $#`,
		`list="a  b   c"; for w in $list; do echo "[$w]"; done`,
		`echo "$list"`,
		`echo pre"$x"post 'single $x' "double \$x \"q\" \\"`,
		`echo a\ b`,
		`echo "a"'b'c`,
		`y=$(echo sub); echo "got $y"`,
		`echo "$(echo nested $(echo deeper))"`,
		`z="$(echo multi; echo line)"; echo "$z" | wc -l`,
		`echo $(echo '  spaced   out  ')`,
		`echo $((x + 1))`,
		`PREFIX=run echo "[$PREFIX]"; echo "[$PREFIX]"`,
		`echo $UNDEFINED_VAR.`,
		`echo * ?`,
		"echo one \\\n  two",
		`echo a # trailing comment`,
	)

	rec = section(&b, newEnv(), "conditions", map[string]string{"f.txt": "content\n", "empty.txt": ""})
	rec.Transcribe(&b,
		`x=hello`,
		`[ -z "" ] && echo empty`,
		`[ "$x" == hello ] && echo eq`,
		`[ "$x" = hello ] && echo eq1`,
		`[ "$x" != hello ] || echo ne`,
		`[ 3 -lt 5 ] && [ 5 -ge 5 ] && [ 2 -ne 3 ] && [ 4 -gt 1 ] && [ 1 -le 1 ] && [ 7 -eq 7 ] && echo numeric`,
		`[ " 7" -eq 7 ] && echo trimmed`,
		`[ \( 1 -eq 1 \) -a \( 2 -eq 3 \) ] || echo and`,
		`[ 1 -eq 1 -o 2 -eq 3 ] && echo or`,
		`[ ! -z "" ] || echo negated`,
		`[ "$x" ] && echo bare`,
		`[ a b ]`,
		`[ "it's" x ]`,
		`[ a == ]`,
		`[ -z ]`,
		`[ x -eq 1 ]`,
		`[ 1 -eq 1`,
		`[ ]`,
		`[ \( 1 -eq 1 ]`,
		`[[ $x == h* ]] && echo glob`,
		`[[ $x == "h*" ]] || echo quoted-literal`,
		`[[ $x == h?llo ]] && echo one-char`,
		`[[ $x != *z* ]] && echo no-z`,
		`[[ ! -z $x && ( $x == hello || $x == bye ) ]] && echo grouped`,
		`[[ ! -z $x ]] && echo notempty`,
		`[[ 10 -gt 9 ]] && echo num`,
		`[[ $x ]] && echo nonempty`,
		`[[ a < b ]]`,
		`[[ 1 -eq 1`,
		`[[ a -eq 1 ]]`,
	)

	rec = section(&b, newEnv(), "control flow", map[string]string{"status.txt": "starting\n"})
	rec.Transcribe(&b,
		`if true; then echo yes; fi`,
		`if false; then echo yes; elif true; then echo elif; else echo else; fi`,
		`if false; then echo yes; else echo else; fi`,
		`if false; then echo yes; fi; echo $?`,
		`if [ 1 -eq 1 ]
then
  echo multi-line
fi`,
		`for i in 1 2 3; do echo "item $i"; done`,
		`for i in; do echo never; done; echo $?`,
		`for f in $(echo a b); do echo $f; done`,
		`for x in "a b" c; do echo "[$x]"; done`,
		`for i in 1 2; do for j in a b; do echo -n "$i$j "; done; done; echo`,
		`for i in 1 2 3; do sleep 10; done`,
		`n=0; while [ $n -lt 3 ]; do n=$((n+1)); echo "n=$n"; done`,
		`until [ $n -eq 0 ]; do n=$((n-1)); done; echo "n=$n"`,
		`while false; do echo never; done; echo $?`,
		`tries=0; while ! grep -q ready status.txt; do tries=$((tries+1)); if [ $tries -ge 3 ]; then echo ready > status.txt; fi; sleep 2; done; echo "tries=$tries"`,
		`! false && echo negated`,
		`! true || echo negated-true`,
		`true | false; echo $?`,
		`false || echo fallback && echo chained`,
		`exit 3; echo never`,
		`false; exit`,
		`if true; then exit 4; fi; echo never`,
		`for i in 1 2; do exit 5; done`,
		`while true; do exit 6; done`,
		`exit x`,
	)

	rec = section(&b, newEnv(), "redirects", nil)
	rec.Transcribe(&b,
		`echo first > out.txt; echo second >> out.txt; cat out.txt`,
		`cat missing.txt 2> err.txt; cat err.txt`,
		`cat missing.txt > all.txt 2>&1; cat all.txt`,
		`cat missing.txt 2>/dev/null || echo quiet`,
		`echo to-stderr >&2`,
		`echo to-stderr 1>&2`,
		`echo hidden > /dev/null`,
		`cat < out.txt | wc -l`,
		`grep -c second < out.txt`,
		`cat < missing.txt`,
		`name=dyn.txt; echo dynamic > $name; cat dyn.txt`,
		`echo x >`,
	)

	rec = section(&b, newEnv(), "other builtins", nil)
	rec.Transcribe(&b,
		`true; echo $?`,
		`false; echo $?`,
		`:; echo $?`,
		`no-such-command --flag`,
	)

	rec = section(&b, newEnv(), "forms the shell refuses", map[string]string{"pods.txt": podsTable, "f.txt": "content\n"})
	rec.Transcribe(&b,
		`echo -e 'a\tb'`,
		`grep -o web pods.txt`,
		`grep -v web pods.txt`,
		`grep -i web pods.txt`,
		`grep -e web pods.txt`,
		`grep -m 1 web pods.txt`,
		`grep -x web pods.txt`,
		`x=hello; echo ${#x}`,
		`echo ${x:-fallback}`,
		`echo $((2 * 3))`,
		`echo $((7 / 2))`,
		`echo $((7 % 2))`,
		`(( 3 > 2 ))`,
		`(( 1 && 1 ))`,
		`(( !0 ))`,
		`echo $((-3))`,
		`echo $(( (2 + 3) ))`,
		`n=1; (( n += 5 ))`,
		`(( ++n ))`,
		`(( n-- ))`,
		`echo $(( $n + 1 ))`,
		`set -e`,
		`unset x`,
		`rm -f f.txt`,
		`basename /a/b/file.yaml`,
		`[ -n "$x" ]`,
		`[ -e f.txt ]`,
		`[ -f f.txt ]`,
		`[ -d / ]`,
		`[ -s f.txt ]`,
		`[[ $x =~ ^h ]]`,
		`[ a \< b ]`,
		`[ b \> a ]`,
	)

	stepLimited := newEnv()
	stepLimited.Interp().MaxSteps = 50
	rec = section(&b, stepLimited, "step limit", nil)
	rec.Transcribe(&b,
		`while true; do :; done`,
		`echo after-limit`,
	)

	rec = section(&b, newEnv(), "parse errors", nil)
	rec.Transcribe(&b,
		`echo "unterminated`,
		`echo 'unterminated`,
		`if true; then echo x`,
		`for x in a b; echo`,
		`while true; do echo x`,
		`echo $(echo unterminated`,
		`(( 1 + 2`,
		`| grep x`,
		`echo a &&`,
		`[[ a == b`,
	)

	checkTranscript(t, "testdata/shell.golden", b.String())
}

const composeProject = `name: shop
services:
  web:
    image: nginx:1.25
    restart: always
    ports:
    - "8080:80"
    - "127.0.0.1:8443:443/tcp"
    depends_on:
    - api
    environment:
      API_URL: http://api:5000
  api:
    image: python:3.12
    command: ["python", "app.py"]
    ports:
    - "5000"
    depends_on:
    - cache
    environment:
    - MODE=prod
    - DEBUG
  cache:
    image: redis:7
    ports:
    - "53:53/udp"
`

// composeFiles holds a project, a default compose.yaml without a name,
// and one file per way Load refuses a project.
var composeFiles = map[string]string{
	"c.yaml":            composeProject,
	"compose.yaml":      "services:\n  site:\n    image: httpd:2.4\n    ports:\n    - 80:80\n  db:\n    image: postgres:16\n    command: postgres -c fsync=off\n",
	"bad-port.yaml":     "services:\n  web:\n    image: nginx\n    ports:\n    - \"eighty:80\"\n",
	"bad-proto.yaml":    "services:\n  web:\n    image: nginx\n    ports:\n    - \"80:80/icmp\"\n",
	"zero-port.yaml":    "services:\n  web:\n    image: nginx\n    ports:\n    - \"0:80\"\n",
	"range.yaml":        "services:\n  web:\n    image: nginx\n    ports:\n    - \"3000-3005:80\"\n",
	"no-image.yaml":     "services:\n  web:\n    restart: always\n",
	"cycle.yaml":        "services:\n  a:\n    image: nginx\n    depends_on:\n    - b\n  b:\n    image: nginx\n    depends_on:\n    - a\n",
	"ghost.yaml":        "services:\n  web:\n    image: nginx\n    depends_on:\n    - ghost\n",
	"two-docs.yaml":     "services:\n  a:\n    image: nginx\n---\nservices:\n  b:\n    image: nginx\n",
	"list.yaml":         "- services\n",
	"empty-svc.yaml":    "services: {}\n",
	"scalar-svc.yaml":   "services:\n  web: nginx\n",
	"not-yaml.yaml":     "services: [unterminated\n",
	"no-services.yaml":  "volumes:\n  data: {}\n",
	"many-ports.yaml":   "services:\n  web:\n    image: nginx\n    ports:\n    - \"8080:80\"\n    - \"9090:9090\"\n    - \"7000\"\n",
	"multi-doc-ok.yaml": "---\nservices:\n  web:\n    image: nginx\n",
}

// TestComposeTranscripts pins what the Compose family's tools print:
// docker compose config, up, ps, logs and down, the port syntax Load
// accepts and refuses, curl against published ports and service names,
// and one refusal for each form docker does not serve.
func TestComposeTranscripts(t *testing.T) {
	var (
		b   strings.Builder
		rec *unittest.Recorder
	)
	newEnv := scenario.For(dataset.Compose).NewEnv

	rec = section(&b, newEnv(), "config", composeFiles)
	rec.Transcribe(&b,
		`docker compose -f c.yaml config`,
		`docker compose -f c.yaml config -q; echo $?`,
		`docker compose -f c.yaml config --quiet`,
		`docker compose --file c.yaml config -q`,
		`docker compose config`,
		`docker compose -f multi-doc-ok.yaml config`,
		`docker compose -f many-ports.yaml config -q`,
		`docker compose -f missing.yaml config`,
	)
	for _, f := range []string{"bad-port", "bad-proto", "zero-port", "range", "no-image", "cycle", "ghost", "two-docs", "list", "empty-svc", "scalar-svc", "not-yaml", "no-services"} {
		rec.Transcribe(&b, "docker compose -f "+f+".yaml config")
	}

	rec = section(&b, newEnv(), "up, ps, logs and down", composeFiles)
	rec.Transcribe(&b,
		`docker compose ps`,
		`docker compose -f c.yaml up -d`,
		`docker compose ps`,
		`docker compose ps | grep web | grep -q Up && echo web-up`,
		`docker compose logs web`,
		`docker compose logs -f cache`,
		`docker compose logs api | grep -q 'exec: python app.py' && echo api-cmd`,
		`docker compose logs ghost`,
		`docker compose down`,
		`docker compose ps`,
		`docker compose -f c.yaml up`,
		`docker compose -f missing.yaml up`,
		`docker compose -f bad-port.yaml up -d`,
	)

	rec = section(&b, newEnv(), "curl", composeFiles)
	rec.Transcribe(&b,
		`docker compose -f c.yaml up -d`,
		`curl http://localhost:8080/`,
		`curl -s http://localhost:8080/index.html`,
		`curl -s -o /dev/null -w "%{http_code}" http://localhost:8080/`,
		`curl -s -o page.html localhost:8080; cat page.html`,
		`curl -s -m 5 -w ' %{http_code}' 127.0.0.1:8443/health`,
		`curl -s http://0.0.0.0:8443`,
		`curl -s http://api:5000/`,
		`curl -s http://localhost:5000/`,
		`curl http://localhost:5000/`,
		`curl -s -o /dev/null -w "%{http_code}" http://localhost:9999/; echo " exit=$?"`,
		`curl --fail -L -k localhost:8080`,
		`curl http://cache/`,
		`curl`,
		`curl -s`,
		`curl -o`,
		`docker compose down`,
		`curl -s localhost:8080; echo "exit=$?"`,
	)

	// The default file names its project, which the container names
	// carry.
	named := maps.Clone(composeFiles)
	named["compose.yaml"] = "name: demo\n" + composeFiles["compose.yaml"]
	rec = section(&b, newEnv(), "default file, project name and other verbs", named)
	rec.Transcribe(&b,
		`docker compose up -d`,
		`docker compose ps`,
		`curl -s http://localhost/`,
		`curl -s http://site`,
		`docker compose logs db`,
		`docker`,
		`docker compose`,
		`docker compose -f c.yaml`,
		`docker compose frob`,
		`docker frob`,
		`docker run nginx`,
	)

	// One refusal per form no corpus script uses.
	rec = section(&b, newEnv(), "forms docker refuses", composeFiles)
	rec.Transcribe(&b,
		`docker compose -f c.yaml up -d`,
		`docker compose -p demo up -d`,
		`docker compose logs`,
		`docker compose version`,
		`docker ps`,
		`docker version`,
		`docker info`,
		`docker images`,
		`docker pull nginx`,
	)

	checkTranscript(t, "testdata/compose.golden", b.String())
}

const helmChart = `apiVersion: apps/v1
kind: Deployment
metadata:
  name: web
spec:
  replicas: 2
  selector:
    matchLabels:
      app: web
  template:
    metadata:
      labels:
        app: web
    spec:
      containers:
      - name: web
        image: nginx:1.25
        ports:
        - containerPort: 80
---
apiVersion: v1
kind: Service
metadata:
  name: web
spec:
  selector:
    app: web
  ports:
  - port: 80
    targetPort: 80
`

var helmFiles = map[string]string{
	"chart.yaml":    helmChart,
	"cm.yaml":       "apiVersion: v1\nkind: ConfigMap\nmetadata:\n  name: settings\ndata:\n  mode: prod\n",
	"no-api.yaml":   "kind: Deployment\nmetadata:\n  name: x\n",
	"not-yaml.yaml": "not: [valid",
	"empty.yaml":    "# nothing here\n",
	"elsewhere.yaml": strings.Replace(helmChart, "metadata:\n  name: web\nspec:\n  replicas: 2",
		"metadata:\n  name: web\n  namespace: missing\nspec:\n  replicas: 2", 1),
}

// TestHelmTranscripts pins what helm prints: template, install, ls, status
// and uninstall, with -n and --create-namespace, what kubectl sees of a
// release, and one refusal for each form helm does not serve.
func TestHelmTranscripts(t *testing.T) {
	var (
		b   strings.Builder
		rec *unittest.Recorder
	)
	newEnv := scenario.For(dataset.Helm).NewEnv

	rec = section(&b, newEnv(), "template", helmFiles)
	rec.Transcribe(&b,
		`helm template web -f chart.yaml`,
		`helm template web --values cm.yaml`,
		`helm template web`,
		`helm template -f chart.yaml`,
		`helm template web -f missing.yaml`,
		`helm template web -f no-api.yaml`,
		`helm template web -f not-yaml.yaml`,
		`helm template web -f empty.yaml`,
		`kubectl get deployments -o jsonpath='{.items[*].metadata.name}'`,
	)

	rec = section(&b, newEnv(), "install, ls and status", helmFiles)
	rec.Transcribe(&b,
		`helm ls`,
		`helm install web -f chart.yaml`,
		`kubectl get deployments -o jsonpath='{.items[*].metadata.name}'`,
		`kubectl get deployment web -o jsonpath='{.spec.replicas}'`,
		`helm status web`,
		`sleep 30`,
		`helm install web -f chart.yaml`,
		`helm status web`,
		`helm install cfg -f cm.yaml -n apps --create-namespace`,
		`helm install cfg2 -f cm.yaml -n apps --create-namespace`,
		`helm ls`,
		`helm list`,
		`helm ls -n apps`,
		`helm status cfg`,
		`helm status cfg -n apps`,
		`kubectl get configmaps -n apps -o jsonpath='{.items[*].metadata.name}'`,
		`helm install web2 -f chart.yaml -n missing`,
		`helm ls -n missing`,
		`helm install again -f cm.yaml --wait`,
		`helm install bad -f no-api.yaml`,
		`helm status`,
		`helm install`,
	)

	rec = section(&b, newEnv(), "uninstall", helmFiles)
	rec.Transcribe(&b,
		`helm install web -f chart.yaml`,
		`helm install cfg -f cm.yaml -n apps --create-namespace`,
		`helm uninstall web`,
		`kubectl get deployments -o jsonpath='{.items[*].metadata.name}'`,
		`helm status web`,
		`helm uninstall web`,
		`helm uninstall`,
		`helm delete cfg -n apps`,
		`helm ls -n apps`,
		`kubectl get configmaps -n apps -o jsonpath='{.items[*].metadata.name}'`,
	)

	rec = section(&b, newEnv(), "other verbs", nil)
	rec.Transcribe(&b,
		`helm`,
		`helm frob`,
	)

	// One refusal per form no corpus script uses.
	rec = section(&b, newEnv(), "forms helm refuses", helmFiles)
	rec.Transcribe(&b,
		`helm install web -f chart.yaml`,
		`helm upgrade web -f chart.yaml`,
		`helm version`,
		`helm ls -A`,
		`helm list --all-namespaces`,
	)

	checkTranscript(t, "testdata/helm.golden", b.String())
}

const (
	// lonelyService selects no pods, so it has no ready endpoints and
	// answers 503.
	lonelyService = `apiVersion: v1
kind: Service
metadata:
  name: web
spec:
  selector:
    app: nothing
  ports:
  - port: 80
    targetPort: 80
`
	// apiRouteEnvoy routes /api to a cluster with an endpoint and has no
	// route for any other path, which answers 404.
	apiRouteEnvoy = `static_resources:
  listeners:
  - name: listener_0
    address:
      socket_address:
        address: 0.0.0.0
        port_value: 10000
    filter_chains:
    - filters:
      - name: envoy.filters.network.http_connection_manager
        typed_config:
          stat_prefix: ingress_http
          route_config:
            name: local_route
            virtual_hosts:
            - name: local_service
              domains: ["*"]
              routes:
              - match:
                  prefix: "/api"
                route:
                  cluster: api
  clusters:
  - name: api
    type: STATIC
    load_assignment:
      cluster_name: api
      endpoints:
      - lb_endpoints:
        - endpoint:
            address:
              socket_address:
                address: 127.0.0.1
                port_value: 8080
`
)

// TestCurlTranscripts pins what curl does with an answer of 400 or
// more, with and without -f, and which options it refuses: against a
// Kubernetes Service with no ready endpoints (503) and an Envoy
// listener with no route for the path (404).
func TestCurlTranscripts(t *testing.T) {
	var (
		b   strings.Builder
		rec *unittest.Recorder
	)

	rec = section(&b, scenario.For(dataset.Kubernetes).NewEnv(), "a Service with no ready endpoints", map[string]string{"svc.yaml": lonelyService})
	rec.Transcribe(&b,
		`kubectl apply -f svc.yaml`,
		`curl http://web/; echo "exit=$?"`,
		`curl -s -o /dev/null -w "%{http_code}" http://web/; echo " exit=$?"`,
		`curl -f http://web/; echo "exit=$?"`,
		`curl --fail -s http://web/; echo "exit=$?"`,
		`curl -s -f -w "%{http_code}" http://web/; echo " exit=$?"`,
		`curl -f -o page.html http://web/; echo "exit=$?"; cat page.html`,
		`curl -f -m 5 -L -k http://web/; echo "exit=$?"`,
		`curl -L -k http://web/`,
		`curl -sf http://web/`,
		`curl -v http://web/`,
		`curl --retry 3 http://web/`,
	)

	rec = section(&b, scenario.For(dataset.Envoy).NewEnv(), "an Envoy route miss", map[string]string{"envoy.yaml": apiRouteEnvoy})
	rec.Transcribe(&b,
		`envoy -c envoy.yaml`,
		`curl -s localhost:10000/api`,
		`curl -s localhost:10000/other; echo "exit=$?"`,
		`curl -f localhost:10000/other; echo "exit=$?"`,
		`curl -s -f -o /dev/null -w "%{http_code}" localhost:10000/other; echo " exit=$?"`,
		`curl -f localhost:10000/api; echo "exit=$?"`,
		`curl -f localhost:10001/api; echo "exit=$?"`,
	)

	checkTranscript(t, "testdata/curl.golden", b.String())
}
