package k8scmd

import (
	"strings"
	"testing"
)

// oneOfEach is a manifest with an object behind every short name
// kubectl has for the kinds the simulator stores.
const oneOfEach = `apiVersion: v1
kind: Namespace
metadata: {name: team}
---
apiVersion: v1
kind: Pod
metadata: {name: solo, labels: {app: solo}}
spec:
  containers: [{name: c, image: nginx}]
---
apiVersion: v1
kind: Service
metadata: {name: front}
spec:
  type: NodePort
  selector: {app: web}
  ports: [{port: 80}]
---
apiVersion: apps/v1
kind: Deployment
metadata: {name: web}
spec:
  replicas: 2
  selector: {matchLabels: {app: web}}
  template:
    metadata: {labels: {app: web}}
    spec:
      containers: [{name: c, image: nginx}]
---
apiVersion: apps/v1
kind: DaemonSet
metadata: {name: agent}
spec:
  selector: {matchLabels: {app: agent}}
  template:
    metadata: {labels: {app: agent}}
    spec:
      containers: [{name: c, image: fluentd}]
---
apiVersion: apps/v1
kind: StatefulSet
metadata: {name: db}
spec:
  selector: {matchLabels: {app: db}}
  template:
    metadata: {labels: {app: db}}
    spec:
      containers: [{name: c, image: postgres}]
---
apiVersion: apps/v1
kind: ReplicaSet
metadata: {name: rset}
spec:
  selector: {matchLabels: {app: rset}}
  template:
    metadata: {labels: {app: rset}}
    spec:
      containers: [{name: c, image: nginx}]
---
apiVersion: v1
kind: ConfigMap
metadata: {name: settings}
data: {mode: prod}
---
apiVersion: v1
kind: ServiceAccount
metadata: {name: robot}
---
apiVersion: v1
kind: PersistentVolume
metadata: {name: disk}
spec:
  capacity: {storage: 1Gi}
---
apiVersion: v1
kind: PersistentVolumeClaim
metadata: {name: claim}
spec:
  accessModes: [ReadWriteOnce]
---
apiVersion: autoscaling/v2
kind: HorizontalPodAutoscaler
metadata: {name: scaler}
spec:
  scaleTargetRef: {kind: Deployment, name: web}
---
apiVersion: networking.k8s.io/v1
kind: Ingress
metadata: {name: edge}
spec:
  defaultBackend: {service: {name: front, port: {number: 80}}}
---
apiVersion: networking.k8s.io/v1
kind: NetworkPolicy
metadata: {name: fence}
spec:
  podSelector: {}
`

// TestGetShortNames: every kubectl short name and plural reads its
// objects, and the Service spellings print the Service table. The
// table renderer used to switch on the first three bytes of the
// spelling: "po", "cm", "ns", "pv", "sa", "rs" and "ds" sliced out of
// range — a panic nothing up to the campaign worker recovers — and
// "serviceaccount" was printed with the Service columns.
func TestGetShortNames(t *testing.T) {
	const serviceHeader = "NAME                 TYPE           CLUSTER-IP     EXTERNAL-IP    PORT(S)        AGE"
	for _, tc := range []struct{ kind, object string }{
		{"po", "solo"}, {"pods", "solo"}, {"pod", "solo"},
		{"svc", "front"}, {"services", "front"}, {"service", "front"},
		{"deploy", "web"}, {"ds", "agent"}, {"sts", "db"},
		{"rs", "rset"}, {"cm", "settings"}, {"ns", "team"},
		{"sa", "robot"}, {"serviceaccount", "robot"}, {"serviceaccounts", "robot"},
		{"pv", "disk"}, {"pvc", "claim"}, {"hpa", "scaler"},
		{"ing", "edge"}, {"netpol", "fence"},
	} {
		env := freshEnv(t)
		env.Shell.FS["all.yaml"] = oneOfEach
		out, stderr, code := runIn(t, env, "kubectl apply -f all.yaml >/dev/null\nsleep 5\nkubectl get "+tc.kind+" -o jsonpath='{.items[*].metadata.name}'")
		if code != 0 || !strings.Contains(" "+out, " "+tc.object+" ") && !strings.Contains(" "+out, " "+tc.object+"\n") {
			t.Errorf("kubectl get %s: exit %d, stdout %q, want %q among the names\nstderr: %s", tc.kind, code, out, tc.object, stderr)
		}
		if tc.object != "front" {
			continue
		}
		out, stderr, code = runIn(t, env, "kubectl get "+tc.kind)
		lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
		if code != 0 || strings.TrimRight(lines[0], " ") != serviceHeader || len(lines) != 2 || !strings.HasPrefix(lines[1], "front ") {
			t.Errorf("kubectl get %s: exit %d, table\n%s\nstderr: %s", tc.kind, code, out, stderr)
		}
	}
}

const threeBehindAService = `apiVersion: apps/v1
kind: Deployment
metadata: {name: web}
spec:
  replicas: 3
  selector: {matchLabels: {app: web}}
  template:
    metadata: {labels: {app: web}}
    spec:
      containers:
      - name: c
        image: busybox
        ports: [{containerPort: 8080}]
---
apiVersion: v1
kind: Service
metadata: {name: web}
spec:
  type: NodePort
  selector: {app: web}
  ports: [{port: 80, targetPort: 8080, nodePort: 30080}]
`

// TestServiceAnswersFromOnePod: with three replicas behind a Service,
// every fresh environment gets the same curl body and the same
// endpoints beside an Ingress's backend. Endpoints used to come in Go's
// map order: of 200 environments 161 were answered by pod -0, 22 by -1
// and 17 by -2.
func TestServiceAnswersFromOnePod(t *testing.T) {
	const edge = `apiVersion: networking.k8s.io/v1
kind: Ingress
metadata: {name: edge}
spec:
  rules:
  - http:
      paths:
      - {path: /, pathType: Prefix, backend: {service: {name: web, port: {number: 80}}}}
`
	bodies, endpoints := map[string]int{}, map[string]int{}
	for i := 0; i < 200; i++ {
		env := NewEnv()
		env.Shell.FS["web.yaml"] = threeBehindAService + "---\n" + edge
		out, stderr, code := runIn(t, env, `kubectl apply -f web.yaml >/dev/null
kubectl wait --for=condition=Available deployment/web --timeout=60s >/dev/null
curl -s $(minikube ip):30080
kubectl describe ingress edge | grep web:80`)
		lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
		if code != 0 || len(lines) != 2 {
			t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out, stderr)
		}
		bodies[lines[0]]++
		endpoints[lines[1]]++
	}
	if len(bodies) != 1 || len(endpoints) != 1 {
		t.Errorf("200 fresh environments: curl bodies %v, Endpoints lines %v; want one of each", bodies, endpoints)
	}
	for body := range bodies {
		if !strings.HasPrefix(body, "OK web-") || !strings.HasSuffix(body, "-0") {
			t.Errorf("curl body %q, want the first pod by name", body)
		}
	}
	for line := range endpoints {
		if strings.Count(line, ":8080") != 3 {
			t.Errorf("Endpoints line %q, want three endpoints", line)
		}
	}
}

const twoOfEverything = `apiVersion: v1
kind: Namespace
metadata: {name: blue}
---
apiVersion: apps/v1
kind: Deployment
metadata: {name: front}
spec:
  replicas: 3
  selector: {matchLabels: {app: front}}
  template:
    metadata: {labels: {app: front}}
    spec:
      containers:
      - name: c
        image: hashicorp/http-echo
        ports: [{containerPort: 8080, hostPort: 8080}]
---
apiVersion: apps/v1
kind: Deployment
metadata: {name: back, namespace: blue}
spec:
  selector: {matchLabels: {app: back}}
  template:
    metadata: {labels: {app: back}}
    spec:
      containers:
      - name: c
        image: hashicorp/http-echo
        ports: [{containerPort: 8080}]
---
apiVersion: v1
kind: Service
metadata: {name: web}
spec:
  type: LoadBalancer
  selector: {app: front}
  ports: [{port: 80, targetPort: 8080}]
---
apiVersion: v1
kind: Service
metadata: {name: web, namespace: blue}
spec:
  type: LoadBalancer
  selector: {app: back}
  ports: [{port: 80, targetPort: 8080}]
`

// TestProbeAnswersFromOneObject: where several objects could answer a
// curl — three pods on one hostPort, two namespaces' LoadBalancers on one
// port, two namespaces' Services of one name — every fresh environment
// gets the same answer, from the first object by name. The probe used
// to take the first the bucket map yielded.
func TestProbeAnswersFromOneObject(t *testing.T) {
	transcripts := map[string]int{}
	for i := 0; i < 50; i++ {
		env := NewEnv()
		env.Shell.FS["app.yaml"] = twoOfEverything
		out, stderr, code := runIn(t, env, `kubectl apply -f app.yaml >/dev/null
sleep 10
curl -s $(minikube ip):8080
curl -s $(minikube ip):80
curl -s web`)
		if code != 0 {
			t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out, stderr)
		}
		transcripts[out]++
	}
	if len(transcripts) != 1 {
		t.Fatalf("50 fresh environments gave %d transcripts: %v", len(transcripts), transcripts)
	}
	for out := range transcripts {
		lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
		if len(lines) != 3 || !strings.HasPrefix(lines[0], "hello from front-") || !strings.HasSuffix(lines[0], "-0") ||
			!strings.HasPrefix(lines[1], "hello from back-") || lines[2] != lines[1] {
			t.Errorf("transcript %q: want the hostPort answered by front's pod -0, and port 80 and the name web by blue/web, the first Service by name", out)
		}
	}
}

// TestSelectorFormsThroughKubectl: key=value and key==value select
// (kubectl's "==" used to select none); the forms no corpus script
// writes fail the command naming the form, and a selector kubectl
// cannot parse fails it with kubectl's error.
func TestSelectorFormsThroughKubectl(t *testing.T) {
	env := freshEnv(t)
	env.Shell.FS["all.yaml"] = oneOfEach
	runIn(t, env, "kubectl apply -f all.yaml\nsleep 5")
	for _, tc := range []struct{ selector, want string }{
		{"app==solo", "solo"},
		{"app=solo", "solo"},
		{"app=solo,app=solo", "solo"},
		{"app=nothing", ""},
	} {
		out, stderr, code := runIn(t, env, "kubectl get pods -l '"+tc.selector+"' -o jsonpath='{.items[*].metadata.name}'")
		if code != 0 || strings.TrimSpace(out) != tc.want {
			t.Errorf("get pods -l %q: exit %d, %q, want %q\nstderr: %s", tc.selector, code, out, tc.want, stderr)
		}
	}
	for _, tc := range []struct{ cmd, stderr string }{
		{"kubectl get pods -l 'app in (solo)' -o jsonpath='{.items}'", `error: selector form "key in (…)" is not supported: use key=value`},
		{"kubectl get pods -l 'app!=web' -o jsonpath='{.items}'", `error: selector form "key!=value" is not supported: use key=value`},
		{"kubectl wait --for=condition=Ready pod -l '!tier' --timeout=5s", `error: selector form "!key" is not supported: use key=value`},
		{"kubectl get pods --selector=app=a=b -o jsonpath='{.items}'", "error: unable to parse requirement: found '=', expected: ',' or end of string"},
		{"kubectl wait --for=condition=Ready pod -l 'app>1' --timeout=5s", "error: unable to parse requirement: found '>', expected: in, notin, =, ==, !="},
	} {
		out, stderr, code := runIn(t, env, tc.cmd)
		if code != 1 || out != "" || stderr != tc.stderr+"\n" {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want %q", tc.cmd, code, out, stderr, tc.stderr)
		}
	}
	if out, _, code := runIn(t, env, "kubectl wait --for=condition=Ready pod -l app=solo --timeout=5s"); code != 0 || out != "pod condition met\n" {
		t.Errorf("wait -l app=solo: exit %d, %q", code, out)
	}
}

// TestSelectorStorageReused: each command's -l selector is parsed into
// the storage the last one's was, so one must never leak into the next,
// whether the commands follow each other, the next one's selector is
// shorter or longer, fails to parse, or is itself built by a kubectl
// get -l in a command substitution. Each command's output is compared
// with the same command alone on an environment in the same state.
func TestSelectorStorageReused(t *testing.T) {
	env := freshEnv(t)
	env.Shell.FS["all.yaml"] = oneOfEach
	const setup = "kubectl apply -f all.yaml\nsleep 5"
	runIn(t, env, setup)
	const names = " -o jsonpath='{.items[*].metadata.name}'"
	cmds := []string{
		"kubectl get pods -l app=solo" + names,
		"kubectl get pods -l 'app=agent,app=agent'" + names,
		"kubectl get pods -l app=db" + names,
		"kubectl get pods -l 'app=web,app=(web'" + names,
		"kubectl get pods" + names,
		"kubectl get pods -l app=$(kubectl get pods -l app=agent -o jsonpath='{.items[0].metadata.labels.app}')" + names,
		"kubectl wait --for=condition=Ready pod -l app=solo --timeout=5s",
		"kubectl get pods -l 'app=web,tier'" + names,
		"kubectl get pods -l app=solo" + names,
	}
	var script strings.Builder
	for _, cmd := range cmds {
		script.WriteString(cmd + "; echo \"[$?]\"\n")
	}
	got, _, _ := runIn(t, env, script.String())
	var want strings.Builder
	for _, cmd := range cmds {
		alone := freshEnv(t)
		alone.Shell.FS["all.yaml"] = oneOfEach
		runIn(t, alone, setup)
		out, _, _ := runIn(t, alone, cmd+"; echo \"[$?]\"")
		want.WriteString(out)
	}
	if got != want.String() {
		t.Errorf("one after another:\n%s\neach alone:\n%s", got, want.String())
	}
	if !strings.HasPrefix(got, "solo\n[0]\nagent-mrttpq-0\n[0]\ndb-0\n[0]\n[1]\n") {
		t.Errorf("the selectors chose %q", got)
	}
}
