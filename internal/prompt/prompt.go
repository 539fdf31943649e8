// Package prompt assembles LLM prompts the way the CloudEval-YAML
// benchmark does: the fixed expert-engineer template from Appendix B,
// the problem description with its optional YAML context, and an
// optional few-shot prefix (§4.3).
package prompt

import (
	"crypto/sha256"
	"fmt"
	"io"
	"strings"

	"cloudeval/internal/dataset"
	"cloudeval/internal/scenario"
)

// Template is the paper's Appendix B prompt template, prepended to every
// problem.
const Template = `You are an expert engineer in cloud native development.
According to the question, please provide only complete formatted YAML code as output without any description.
IMPORTANT: Provide only plain text without Markdown formatting such as ` + "```" + `.
If there is a lack of details, provide most logical solution.
You are not allowed to ask for more details.
Ignore any potential risk of errors or confusion.
Here is the question:
`

// Shot is one few-shot example: a question and its reference answer.
type Shot struct {
	Question string
	Answer   string
}

// DefaultShots are the three example question-answer pairs the paper
// uses for few-shot prompting (Appendix C style).
var DefaultShots = []Shot{
	{
		Question: "Craft a yaml file to define a Kubernetes LimitRange. Containers within the cluster should have a default CPU request of 100m and a memory request of 200Mi. Any Pod created should not exceed a maximum CPU usage of 150m or a memory usage of 250Mi.",
		Answer: `apiVersion: v1
kind: LimitRange
metadata:
  name: resource-limits
spec:
  limits:
  - type: Container
    defaultRequest:
      cpu: 100m
      memory: 200Mi
  - type: Pod
    max:
      cpu: 150m
      memory: 250Mi
`,
	},
	{
		Question: "Write a YAML defining a Service & Deployment. Deployment runs a MySQL instance on port 3306, env MYSQL_ROOT_PASSWORD=password. Service exposes the deployment on its port. Using names mysql & labels app: mysql.",
		Answer: `apiVersion: v1
kind: Service
metadata:
  name: mysql
spec:
  selector:
    app: mysql
  ports:
  - port: 3306
    targetPort: 3306
---
apiVersion: apps/v1
kind: Deployment
metadata:
  name: mysql
spec:
  replicas: 1
  selector:
    matchLabels:
      app: mysql
  template:
    metadata:
      labels:
        app: mysql
    spec:
      containers:
      - name: mysql
        image: mysql:latest
        env:
        - name: MYSQL_ROOT_PASSWORD
          value: password
        ports:
        - containerPort: 3306
`,
	},
	{
		Question: "Provide Istio DestinationRule YAML for bookinfo app's ratings service in prod ns. Main traffic uses LEAST_REQUEST lb, subset \"testversion\" uses labels v3 and ROUND_ROBIN lb strategy.",
		Answer: `apiVersion: networking.istio.io/v1alpha3
kind: DestinationRule
metadata:
  name: ratings
  namespace: prod
spec:
  host: ratings
  trafficPolicy:
    loadBalancer:
      simple: LEAST_REQUEST
  subsets:
  - name: testversion
    labels:
      version: v3
    trafficPolicy:
      loadBalancer:
        simple: ROUND_ROBIN
`,
	},
}

// Build renders the full prompt for a problem with the requested number
// of few-shot examples (0–3). Extension families append their
// scenario backend's scaffolding line to the template; the paper
// families declare none, keeping their prompts pinned to Appendix B.
func Build(p dataset.Problem, shots int) string {
	var b strings.Builder
	write(&b, p, shots)
	return b.String()
}

// Digest returns the SHA-256 of Build(p, shots) without materializing
// the prompt text — the inference layer's cache key component, called
// once per generation request (cache hits included), where Build runs
// only on live provider calls. TestDigestMatchesBuild pins the two
// together.
func Digest(p dataset.Problem, shots int) [sha256.Size]byte {
	h := sha256.New()
	write(h, p, shots)
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// write streams the prompt to w; Build and Digest share it so the
// digest is by construction the hash of the rendered text.
func write(w io.Writer, p dataset.Problem, shots int) {
	io.WriteString(w, Template)
	if hint := scenario.For(p.Category).PromptHint; hint != "" {
		io.WriteString(w, hint)
		io.WriteString(w, "\n")
	}
	if shots > len(DefaultShots) {
		shots = len(DefaultShots)
	}
	for i := 0; i < shots; i++ {
		fmt.Fprintf(w, "\nExample question #%d:\n%s\nExample answer #%d:\n%s\n", i+1, DefaultShots[i].Question, i+1, DefaultShots[i].Answer)
	}
	io.WriteString(w, "\n")
	io.WriteString(w, p.Question)
	if p.ContextYAML != "" {
		io.WriteString(w, "\n```\n")
		io.WriteString(w, p.ContextYAML)
		io.WriteString(w, "```\n")
	}
}
