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

// TestGetShortNamesAsTables: every kubectl short name and plural renders
// its objects as a table and as -o wide, with the columns of the kind it
// names. renderTable used to switch on the first three bytes of the
// spelling: "po", "cm", "ns", "pv", "sa", "rs" and "ds" sliced out of
// range — a panic nothing up to the campaign worker recovers — and
// "serviceaccount" was printed with the Service columns.
func TestGetShortNamesAsTables(t *testing.T) {
	const (
		podHeader     = "NAME                                         READY   STATUS    RESTARTS  AGE"
		serviceHeader = "NAME                 TYPE           CLUSTER-IP     EXTERNAL-IP    PORT(S)        AGE"
		plainHeader   = "NAME                                         AGE"
	)
	for _, tc := range []struct{ kind, header, object string }{
		{"po", podHeader, "solo"}, {"pods", podHeader, "solo"}, {"pod", podHeader, "solo"},
		{"svc", serviceHeader, "front"}, {"services", serviceHeader, "front"}, {"service", serviceHeader, "front"},
		{"deploy", plainHeader, "web"}, {"ds", plainHeader, "agent"}, {"sts", plainHeader, "db"},
		{"rs", plainHeader, "rset"}, {"cm", plainHeader, "settings"}, {"ns", plainHeader, "team"},
		{"sa", plainHeader, "robot"}, {"serviceaccount", plainHeader, "robot"}, {"serviceaccounts", plainHeader, "robot"},
		{"pv", plainHeader, "disk"}, {"pvc", plainHeader, "claim"}, {"hpa", plainHeader, "scaler"},
		{"ing", plainHeader, "edge"}, {"netpol", plainHeader, "fence"},
	} {
		for _, flags := range []string{"", " -o wide", " -A", " -A -o wide"} {
			env := freshEnv(t)
			env.Shell.FS["all.yaml"] = oneOfEach
			out, stderr, code := runIn(t, env, "kubectl apply -f all.yaml >/dev/null\nsleep 5\nkubectl get "+tc.kind+flags)
			lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
			if code != 0 || strings.TrimRight(lines[0], " ") != tc.header {
				t.Errorf("kubectl get %s%s: exit %d, header %q, want %q\nstderr: %s", tc.kind, flags, code, lines[0], tc.header, stderr)
				continue
			}
			found := false
			for _, ln := range lines[1:] {
				found = found || strings.HasPrefix(ln, tc.object+" ")
			}
			if !found {
				t.Errorf("kubectl get %s%s does not list %q:\n%s", tc.kind, flags, tc.object, out)
			}
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
// Endpoints line. Endpoints used to come in Go's map order: of 200
// environments 161 were answered by pod -0, 22 by -1 and 17 by -2.
func TestServiceAnswersFromOnePod(t *testing.T) {
	bodies, endpoints := map[string]int{}, map[string]int{}
	for i := 0; i < 200; i++ {
		env := NewEnv()
		env.Shell.FS["web.yaml"] = threeBehindAService
		out, stderr, code := runIn(t, env, `kubectl apply -f web.yaml >/dev/null
kubectl wait --for=condition=Available deployment/web --timeout=60s >/dev/null
curl -s $(minikube ip):30080
kubectl describe service web | grep Endpoints:`)
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

// TestSelectorFormsThroughKubectl: the set and existence forms select
// (they used to drop the term and match every pod, "==" none), and a
// selector kubectl cannot parse fails the command with its error.
func TestSelectorFormsThroughKubectl(t *testing.T) {
	env := freshEnv(t)
	env.Shell.FS["all.yaml"] = oneOfEach
	runIn(t, env, "kubectl apply -f all.yaml\nsleep 5")
	for _, tc := range []struct{ selector, want string }{
		{"app==solo", "solo"},
		{"app in (solo)", "solo"},
		{"app in (solo, nothing)", "solo"},
		{"app notin (web,agent,db,rset)", "solo"},
		{"app!=web,app!=agent,app!=db,app!=rset", "solo"},
		{"app=solo,!tier", "solo"},
		{"tier", ""},
		{"app in (nothing)", ""},
	} {
		out, stderr, code := runIn(t, env, "kubectl get pods -l '"+tc.selector+"' -o jsonpath='{.items[*].metadata.name}'")
		if code != 0 || strings.TrimSpace(out) != tc.want {
			t.Errorf("get pods -l %q: exit %d, %q, want %q\nstderr: %s", tc.selector, code, out, tc.want, stderr)
		}
	}
	for _, cmd := range []string{
		"kubectl get pods -l 'app in'",
		"kubectl get pods --selector='app=a=b' -o name",
		"kubectl describe pods -l 'app in (web'",
		"kubectl wait --for=condition=Ready pod -l 'app>1' --timeout=5s",
	} {
		out, stderr, code := runIn(t, env, cmd)
		if code != 1 || out != "" || !strings.HasPrefix(stderr, "error: unable to parse requirement: found '") {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want kubectl's parse error", cmd, code, out, stderr)
		}
	}
	if out, _, code := runIn(t, env, "kubectl wait --for=condition=Ready pod -l 'app in (solo)' --timeout=5s"); code != 0 || out != "pod condition met\n" {
		t.Errorf("wait -l 'app in (solo)': exit %d, %q", code, out)
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
		"kubectl get pods -l 'app!=solo,app!=web,app!=db,app!=rset'" + names,
		"kubectl get pods -l app=db" + names,
		"kubectl get pods -l 'app in (web'" + names,
		"kubectl get pods" + names,
		"kubectl get pods -l app=$(kubectl get pods -l app=agent -o jsonpath='{.items[0].metadata.labels.app}')" + names,
		"kubectl wait --for=condition=Ready pod -l 'app in (solo,db)' --timeout=5s",
		"kubectl describe pods -l app=solo | grep -c '^Name:'",
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
