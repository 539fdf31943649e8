// Package repostats reproduces Appendix A (Table 8): YAML-file counts
// across the top-100 most-starred cloud-native repositories, supporting
// the paper's motivating claim that 90 of 100 contain more than ten
// YAML files.
//
// Offline substitution: instead of crawling GitHub, the package ships
// the surveyed repository manifest (name, stars, total files, YAML
// files) transcribed from the paper's Table 8.
package repostats

import (
	"fmt"
	"sort"
	"strings"
)

// Repo is one surveyed repository.
type Repo struct {
	Name       string
	Stars      int
	TotalFiles int
	YAMLFiles  int
}

// Table8 is the paper's survey, transcribed.
var Table8 = []Repo{
	{"GitLab", 23368, 58372, 4721}, {"Kubernetes", 101881, 29662, 4715},
	{"Elastic", 65213, 35747, 3143}, {"GraphQL", 30135, 13667, 2169},
	{"Istio", 33694, 6261, 2081}, {"Ansible", 58659, 7236, 1914},
	{"ShardingSphere", 18807, 21945, 1632}, {"llvm", 21975, 148442, 1202},
	{"Argo", 14145, 4172, 1118}, {"Skaffold", 14219, 16345, 1044},
	{"Kubespray", 14472, 2093, 900}, {"SkyWalking", 22442, 5999, 802},
	{"Cilium", 16516, 19972, 780}, {"MongoDB", 24425, 49784, 743},
	{"Backstage", 23285, 12300, 613}, {"Grafana Loki", 20163, 15520, 554},
	{"Helm", 24953, 1784, 540}, {"Envoy", 22759, 13470, 520},
	{"Pulumi", 17622, 8179, 467}, {"Teleport", 14225, 8884, 419},
	{"Traefik", 44719, 1870, 339}, {"minikube", 27261, 2368, 316},
	{"SlimToolkit", 17269, 6545, 305}, {"Prometheus", 49987, 1389, 255},
	{"Grafana", 57207, 15782, 242}, {"Podman", 19128, 10589, 203},
	{"ClickHouse", 30874, 27331, 200}, {"Rancher K8s", 21560, 3655, 196},
	{"Netdata", 65199, 3069, 190}, {"Dapr", 22320, 2027, 186},
	{"Trivy", 18709, 2250, 178}, {"Vector", 14432, 9320, 174},
	{"JHipster", 20853, 3874, 173}, {"RethinkDB", 26257, 2121, 165},
	{"Dgraph", 19620, 2231, 161}, {"Salt Project", 13513, 7242, 153},
	{"Docker Compose", 30543, 466, 147}, {"Vitess", 16897, 5579, 142},
	{"containerd", 14857, 6523, 138}, {"Serverless", 45187, 1805, 131},
	{"CockroachDB", 27828, 18499, 118}, {"k3s", 24517, 750, 97},
	{"Logstash", 13639, 3835, 88}, {"Apache Spark", 36800, 24415, 85},
	{"Kong", 35947, 1888, 75}, {"SST", 17715, 4683, 73},
	{"Rust", 85579, 46998, 69}, {"gRPC", 39066, 12629, 68},
	{"Vault", 27546, 9175, 66}, {"DragonflyDB", 21064, 615, 64},
	{"Consul", 26921, 13084, 62}, {"Keycloak", 17472, 14535, 59},
	{"Presto", 15087, 13493, 57}, {"InfluxData", 26133, 2007, 56},
	{"ORY Hydra", 14434, 2556, 56}, {"OpenAPI", 27136, 181, 55},
	{"Sentry", 35169, 14388, 54}, {"TDengine", 21762, 4620, 51},
	{"Jaeger", 18318, 1469, 48}, {"MinIO", 40904, 1391, 46},
	{"Zipkin", 16425, 1076, 43}, {"k6", 21566, 3382, 40},
	{"Nomad", 13968, 6080, 39}, {"Timescale", 15534, 2289, 39},
	{"etcd", 44537, 1600, 38}, {"Gradle Build Tool", 15205, 35647, 38},
	{"Terraform", 38875, 5704, 36}, {"Apache RocketMQ", 19814, 2985, 36},
	{"Flink", 21993, 27228, 30}, {"Apollo", 28360, 1512, 28},
	{"gVisor", 14172, 3723, 26}, {"Sentinel", 21422, 3487, 25},
	{"go-zero", 25550, 1382, 22}, {"Seata", 24226, 3904, 21},
	{"Packer", 14612, 1450, 20}, {"Wasmer", 16300, 2007, 19},
	{"Portainer", 26644, 3063, 19}, {"Golang", 114620, 14022, 18},
	{"SOPS", 13823, 190, 18}, {"Redis", 61572, 1679, 16},
	{"kratos", 21387, 861, 16}, {"NATS", 24451, 580, 16},
	{"Zig", 26009, 16173, 15}, {"Jenkins", 21453, 13139, 15},
	{"Apache Hadoop", 13858, 9562, 14}, {"Dubbo", 39400, 5399, 14},
	{"TiDB", 34880, 6235, 14}, {"OpenFaaS", 23512, 1100, 14},
	{"emscripten", 24266, 9596, 11}, {"OpenCV", 71360, 8613, 10},
	{"Caddy", 49844, 465, 9}, {"Apache bRPC", 15290, 1632, 9},
	{"Firecracker", 22578, 822, 8}, {"Nacos", 27577, 3501, 6},
	{"Kotlin", 45845, 98293, 5}, {"TiKV", 13617, 1705, 3},
	{"Kafka", 25883, 7020, 2}, {"V8", 21722, 14237, 1},
	{"FFmpeg", 38520, 8287, 1}, {"NGINX(Wasm)", 19089, 559, 0},
}

// CountAtLeast reports repositories with n or more YAML files. The
// paper's "90 out of 100 use more than 10 YAML files" counts this way
// (OpenCV sits exactly at 10).
func CountAtLeast(repos []Repo, n int) int {
	c := 0
	for _, r := range repos {
		if r.YAMLFiles >= n {
			c++
		}
	}
	return c
}

// FormatTable8 renders the survey summary.
func FormatTable8(repos []Repo) string {
	byYAML := make([]Repo, len(repos))
	copy(byYAML, repos)
	sort.Slice(byYAML, func(i, j int) bool { return byYAML[i].YAMLFiles > byYAML[j].YAMLFiles })
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %8s %10s %8s\n", "Repo", "Stars", "Files", "YAML")
	for _, r := range byYAML[:10] {
		fmt.Fprintf(&b, "%-20s %8d %10d %8d\n", r.Name, r.Stars, r.TotalFiles, r.YAMLFiles)
	}
	fmt.Fprintf(&b, "... %d repositories surveyed; %d/%d have 10+ YAML files\n",
		len(repos), CountAtLeast(repos, 10), len(repos))
	return b.String()
}
