package k8scmd

import (
	"slices"
	"strings"
	"testing"

	"cloudeval/internal/raceflag"
	"cloudeval/internal/shell"
	"cloudeval/internal/yamlx"
)

// runScript executes a unit-test script in a fresh environment with the
// given labeled_code.yaml content.
func runScript(t *testing.T, labeledCode, script string) (string, int) {
	t.Helper()
	env := NewEnv()
	env.Shell.FS["labeled_code.yaml"] = labeledCode
	stdout, _, code := runIn(t, env, script)
	return stdout, code
}

// Appendix C sample #1: DaemonSet with env vars, resource limits and a
// hostPort probed via curl.
const sample1YAML = `apiVersion: apps/v1
kind: DaemonSet
metadata:
  name: kube-registry-proxy-modified
spec:
  selector:
    matchLabels:
      app: kube-registry-modified
  template:
    metadata:
      labels:
        app: kube-registry-modified
    spec:
      containers:
      - name: kube-registry-proxy-modified
        image: nginx:latest
        resources:
          limits:
            cpu: 100m
            memory: 50Mi
        env:
        - name: REGISTRY_HOST
          value: kube-registry-modified.svc.cluster.local
        - name: REGISTRY_PORT
          value: "5000"
        ports:
        - name: registry
          containerPort: 80
          hostPort: 5000
`

const sample1Test = `kubectl apply -f labeled_code.yaml
kubectl wait --for=condition=Ready pod -l app=kube-registry-modified --timeout=60s
passed_tests=0
total_tests=3
pods=$(kubectl get pods -l app=kube-registry-modified --output=jsonpath={.items..metadata.name})
host_ip=$(kubectl get pod $pods -o=jsonpath='{.status.hostIP}')
curl_output=$(curl -s -o /dev/null -w "%{http_code}" $host_ip:5000)
if [ "$curl_output" == "200" ]; then
  ((passed_tests++))
else
  exit 1
fi
env_vars=$(kubectl get pods --selector=app=kube-registry-modified -o=jsonpath='{.items[0].spec.containers[0].env[*].name}')
if [[ $env_vars == *"REGISTRY_HOST"* && $env_vars == *"REGISTRY_PORT"* ]]; then
  ((passed_tests++))
fi
cpu_limit=$(kubectl get pod $pods -o=jsonpath='{.spec.containers[0].resources.limits.cpu}')
memory_limit=$(kubectl get pod $pods -o=jsonpath='{.spec.containers[0].resources.limits.memory}')
if [ "$cpu_limit" == "100m" ] && [ "$memory_limit" == "50Mi" ]; then
  ((passed_tests++))
fi
if [ $passed_tests -eq $total_tests ]; then
  echo unit_test_passed
fi
`

func TestSample1DaemonSetPasses(t *testing.T) {
	out, _ := runScript(t, sample1YAML, sample1Test)
	if !strings.Contains(out, "unit_test_passed") {
		t.Errorf("correct answer should pass; output:\n%s", out)
	}
}

func TestSample1WrongEnvFails(t *testing.T) {
	bad := strings.ReplaceAll(sample1YAML, "REGISTRY_HOST", "WRONG_NAME")
	out, _ := runScript(t, bad, sample1Test)
	if strings.Contains(out, "unit_test_passed") {
		t.Errorf("wrong env var should fail; output:\n%s", out)
	}
}

func TestSample1WrongLimitsFails(t *testing.T) {
	bad := strings.ReplaceAll(sample1YAML, "cpu: 100m", "cpu: 200m")
	out, _ := runScript(t, bad, sample1Test)
	if strings.Contains(out, "unit_test_passed") {
		t.Errorf("wrong cpu limit should fail; output:\n%s", out)
	}
}

func TestSample1MissingHostPortFails(t *testing.T) {
	bad := strings.ReplaceAll(sample1YAML, "hostPort: 5000", "hostPort: 5001")
	out, code := runScript(t, bad, sample1Test)
	if strings.Contains(out, "unit_test_passed") || code == 0 {
		t.Errorf("wrong hostPort should exit 1; output:\n%s code=%d", out, code)
	}
}

// Appendix C sample #2: LoadBalancer service over the nginx deployment,
// checked via "minikube service".
const sample2YAML = `apiVersion: v1
kind: Service
metadata:
  name: nginx-service
spec:
  selector:
    app: nginx
  ports:
  - name: http
    port: 80
    targetPort: 80
  type: LoadBalancer
`

const sample2Test = `echo "apiVersion: apps/v1
kind: Deployment
metadata:
  name: nginx-deployment
spec:
  replicas: 3
  selector:
    matchLabels:
      app: nginx
  template:
    metadata:
      labels:
        app: nginx
    spec:
      containers:
      - name: nginx-container
        image: nginx:latest
        ports:
        - containerPort: 80" | kubectl apply -f -
kubectl wait --for=condition=ready deployment --all --timeout=15s
kubectl apply -f labeled_code.yaml
sleep 15
kubectl get svc
timeout -s INT 8s minikube service nginx-service > bash_output.txt 2>&1
cat bash_output.txt
grep "Opening service default/nginx-service in default browser..." bash_output.txt && echo unit_test_passed
`

func TestSample2ServicePasses(t *testing.T) {
	out, code := runScript(t, sample2YAML, sample2Test)
	if !strings.Contains(out, "unit_test_passed") {
		t.Errorf("correct answer should pass (code %d); output:\n%s", code, out)
	}
}

func TestSample2ClusterIPFails(t *testing.T) {
	bad := strings.ReplaceAll(sample2YAML, "type: LoadBalancer", "type: ClusterIP")
	out, _ := runScript(t, bad, sample2Test)
	if strings.Contains(out, "unit_test_passed") {
		t.Errorf("ClusterIP service should fail minikube service; output:\n%s", out)
	}
}

func TestSample2WrongNameFails(t *testing.T) {
	bad := strings.ReplaceAll(sample2YAML, "nginx-service", "other-service")
	out, _ := runScript(t, bad, sample2Test)
	if strings.Contains(out, "unit_test_passed") {
		t.Errorf("differently named service should fail; output:\n%s", out)
	}
}

// Appendix C sample #3: the Ingress v1 strict-decoding debug problem.
const sample3FixedYAML = `apiVersion: networking.k8s.io/v1
kind: Ingress
metadata:
  name: minimal-ingress
  annotations:
    nginx.ingress.kubernetes.io/rewrite-target: /
spec:
  rules:
  - http:
      paths:
      - path: /
        pathType: Prefix
        backend:
          service:
            name: test-app
            port:
              number: 5000
`

const sample3Test = `kubectl apply -f labeled_code.yaml
kubectl wait --namespace default --for=condition=SYNCED ingress --all --timeout=15s
kubectl describe ingress minimal-ingress | grep "test-app:5000" && echo unit_test_passed
`

func TestSample3IngressFixedPasses(t *testing.T) {
	out, _ := runScript(t, sample3FixedYAML, sample3Test)
	if !strings.Contains(out, "unit_test_passed") {
		t.Errorf("fixed ingress should pass; output:\n%s", out)
	}
}

func TestSample3LegacyIngressFails(t *testing.T) {
	legacy := `apiVersion: networking.k8s.io/v1
kind: Ingress
metadata:
  name: test-ingress
  annotations:
    nginx.ingress.kubernetes.io/rewrite-target: /
spec:
  rules:
  - http:
      paths:
      - path: /
        backend:
          serviceName: test-app
          servicePort: 5000
`
	out, _ := runScript(t, legacy, sample3Test)
	if strings.Contains(out, "unit_test_passed") {
		t.Errorf("legacy ingress should fail strict decoding; output:\n%s", out)
	}
}

// Figure 1: the RoleBinding problem.
const fig1YAML = `apiVersion: rbac.authorization.k8s.io/v1
kind: RoleBinding
metadata:
  name: read-secrets
  namespace: development
subjects:
- kind: User
  name: dave
  apiGroup: rbac.authorization.k8s.io
roleRef:
  kind: ClusterRole
  name: secret-reader
  apiGroup: rbac.authorization.k8s.io
`

const fig1Test = `kubectl create ns development
kubectl apply -f labeled_code.yaml
kubectl create clusterrole secret-reader --verb=get,list --resource=secrets
namespace=$(kubectl get rolebinding read-secrets -n development -o jsonpath='{.metadata.namespace}')
subject_name=$(kubectl get rolebinding read-secrets -n development -o jsonpath='{.subjects[0].name}')
role_ref_name=$(kubectl get rolebinding read-secrets -n development -o jsonpath='{.roleRef.name}')
if [[ $namespace == "development" && $subject_name == "dave" && $role_ref_name == "secret-reader" ]]; then
  echo cn1000_unit_test_passed
fi
`

func TestFigure1RoleBindingPasses(t *testing.T) {
	out, _ := runScript(t, fig1YAML, fig1Test)
	if !strings.Contains(out, "cn1000_unit_test_passed") {
		t.Errorf("RBAC answer should pass; output:\n%s", out)
	}
}

func TestFigure1WrongSubjectFails(t *testing.T) {
	bad := strings.ReplaceAll(fig1YAML, "name: dave", "name: eve")
	out, _ := runScript(t, bad, fig1Test)
	if strings.Contains(out, "cn1000_unit_test_passed") {
		t.Errorf("wrong subject should fail; output:\n%s", out)
	}
}

func TestEnvoyValidateAndProbe(t *testing.T) {
	config := `static_resources:
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
                  prefix: "/"
                route:
                  cluster: service_backend
  clusters:
  - name: service_backend
    type: STATIC
    lb_policy: ROUND_ROBIN
    load_assignment:
      cluster_name: service_backend
      endpoints:
      - lb_endpoints:
        - endpoint:
            address:
              socket_address:
                address: 127.0.0.1
                port_value: 8080
`
	script := `envoy --mode validate -c labeled_code.yaml && envoy -c labeled_code.yaml
status=$(curl -s -o /dev/null -w "%{http_code}" http://localhost:10000/)
if [ "$status" == "200" ]; then
  echo unit_test_passed
fi
`
	out, _ := runScript(t, config, script)
	if !strings.Contains(out, "unit_test_passed") {
		t.Errorf("envoy config should validate and route; output:\n%s", out)
	}
	// Validation prints Envoy's verdict, exits 0 and starts no proxy:
	// nothing listens for a curl that follows it.
	out, code := runScript(t, config, `envoy --mode validate -c labeled_code.yaml
curl -s -o /dev/null -w "%{http_code}" http://localhost:10000/; echo " curl=$?"`)
	if want := "configuration 'labeled_code.yaml' OK\n000 curl=7\n"; out != want || code != 0 {
		t.Errorf("validate-only run: stdout %q, exit %d; want %q, exit 0", out, code, want)
	}
	// A config whose route targets a missing cluster must fail validation.
	broken := strings.Replace(config, "cluster: service_backend", "cluster: missing_cluster", 1)
	out2, _ := runScript(t, broken, `envoy --mode validate -c labeled_code.yaml && echo validate_ok`)
	if strings.Contains(out2, "validate_ok") {
		t.Errorf("broken envoy config should fail validation; output:\n%s", out2)
	}
	out3, _ := runScript(t, broken, script)
	if strings.Contains(out3, "unit_test_passed") {
		t.Errorf("broken envoy config should not pass the probe; output:\n%s", out3)
	}
}

func TestCurlConnectionRefused(t *testing.T) {
	env := NewEnv()
	stdout, _, _ := runIn(t, env, `curl -s -o /dev/null -w "%{http_code}" 10.0.0.99:1234; echo " exit=$?"`)
	if !strings.Contains(stdout, "000") || !strings.Contains(stdout, "exit=7") {
		t.Errorf("refused connection: %q", stdout)
	}
}

func TestKubectlGetServiceTable(t *testing.T) {
	env := NewEnv()
	env.Shell.FS["svc.yaml"] = sample2YAML
	stdout, _, _ := runIn(t, env, `kubectl apply -f svc.yaml; kubectl get svc`)
	if !strings.Contains(stdout, "nginx-service") || !strings.Contains(stdout, "LoadBalancer") {
		t.Errorf("get svc table:\n%s", stdout)
	}
}

func TestKubectlApplyErrorSurfacesToScript(t *testing.T) {
	env := NewEnv()
	env.Shell.FS["bad.yaml"] = "not: a: valid: manifest\n"
	stdout, stderr, code := runIn(t, env, `kubectl apply -f bad.yaml || echo apply_failed`)
	if !strings.Contains(stdout, "apply_failed") {
		t.Errorf("apply of invalid YAML should fail: stdout %q, stderr %q, exit %d", stdout, stderr, code)
	}
}

func TestKubectlRolloutStatus(t *testing.T) {
	env := NewEnv()
	env.Shell.FS["dep.yaml"] = strings.Replace(sample2YAML, "kind: Service", "kind: Service", 1)
	env.Shell.FS["deploy.yaml"] = `apiVersion: apps/v1
kind: Deployment
metadata:
  name: web
spec:
  replicas: 1
  selector:
    matchLabels:
      app: web
  template:
    metadata:
      labels:
        app: web
    spec:
      containers:
      - name: c
        image: nginx
`
	stdout, stderr, code := runIn(t, env, `kubectl apply -f deploy.yaml && kubectl rollout status deployment/web --timeout=30s && echo rolled`)
	if !strings.Contains(stdout, "rolled") {
		t.Errorf("rollout status failed: stdout %q, stderr %q, exit %d", stdout, stderr, code)
	}
}

// TestGetJSONPathOverList: a get that does not name exactly one object
// hands its template a List, {apiVersion: v1, kind: List, items: [...]},
// whose items are that get's objects alone; the Env lets go of them
// once the template has rendered.
func TestGetJSONPathOverList(t *testing.T) {
	env := NewEnv()
	env.Shell.FS["labeled_code.yaml"] = sample1YAML
	stdout, stderr, code := runIn(t, env, `kubectl apply -f labeled_code.yaml
sleep 5
kubectl get pods -l app=kube-registry-modified -o jsonpath='{.items[0].spec.containers[0].env[*].name}'
kubectl get pods --selector=app=kube-registry-modified -o=jsonpath='{.items[0].spec.containers[0].resources.limits.cpu}'
kubectl get pods -l app=nothing -o jsonpath='{.kind}{.apiVersion}{.items}'
kubectl get ds kube-registry-proxy-modified -o jsonpath='{.kind}'
kubectl get ds kube-registry-proxy-modified kube-registry-proxy-modified -o jsonpath='{.kind}{.items[*].kind}'
`)
	want := "daemonset/kube-registry-proxy-modified created\n" +
		"REGISTRY_HOST REGISTRY_PORT\n100m\nListv1[]\nDaemonSet\nListDaemonSet DaemonSet\n"
	if stdout != want || stderr != "" || code != 0 {
		t.Errorf("stdout %q, stderr %q, exit %d; want %q", stdout, stderr, code, want)
	}
	if env.items.Items != nil || slices.ContainsFunc(env.docs, func(n *yamlx.Node) bool { return n != nil }) {
		t.Errorf("the Env still holds the objects of its last gets: %d listed, %v printed", len(env.items.Items), env.docs)
	}
}

// getPhaseMaxAllocs caps what one execution of getPhase allocates on a
// warmed Env. It was 9 while the shell's streams were strings.Builders,
// jsonpath built a slice per step and kubectl a List node and an items
// slice per get, and 1, the substitution's value, until that value was
// built in the Env's text arena.
const getPhaseMaxAllocs = 0

const getPhase = `p=$(kubectl get pod web -o jsonpath='{.status.phase}')`

// TestGetJSONPathAllocs pins the read a unit test makes most: a kubectl
// get through a jsonpath template, inside a command substitution. The
// template is compiled, the streams are pooled, the rendering buffer is
// the Env's and the value the script keeps is in its text arena.
func TestGetJSONPathAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	env := NewEnv()
	env.Shell.FS["pod.yaml"] = "apiVersion: v1\nkind: Pod\nmetadata:\n  name: web\nspec:\n  containers:\n  - name: web\n    image: nginx\n"
	if stdout, stderr, code := runIn(t, env, "kubectl apply -f pod.yaml"); code != 0 {
		t.Fatalf("apply: stdout %q, stderr %q, exit %d", stdout, stderr, code)
	}
	prog, err := shell.Parse(getPhase)
	if err != nil {
		t.Fatal(err)
	}
	env.Shell.Exec(prog)
	if p := env.Shell.Env["p"]; p != "Pending" {
		t.Fatalf("p = %q, want Pending", p)
	}
	allocs := testing.AllocsPerRun(200, func() { env.Shell.Exec(prog) })
	t.Logf("%.1f allocations per execution of %s", allocs, getPhase)
	if allocs > getPhaseMaxAllocs {
		t.Errorf("%.1f allocations per execution of %s, cap %d", allocs, getPhase, getPhaseMaxAllocs)
	}
}
