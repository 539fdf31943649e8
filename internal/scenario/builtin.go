package scenario

import (
	"cloudeval/internal/composesim"
	"cloudeval/internal/dataset"
	"cloudeval/internal/helmsim"
	"cloudeval/internal/k8scmd"
)

// backends is every workload family, in the paper's presentation order
// (Table 2) followed by the extension families; Kubernetes comes first
// and is For's fallback. The paper families' DifficultyBase values and
// the absence of PromptHints are pinned: they are what keeps Tables 2/4
// byte-identical to the seed reproduction.
var backends = []*Backend{
	{
		Category:      dataset.Kubernetes,
		Paper:         true,
		NewEnv:        func() Env { return k8scmd.NewEnv() },
		ImpliedImages: []string{"registry.k8s.io/pause:3.9"},
		Marker:        "kind",
		HasKind:       true,
	},
	{
		Category:       dataset.Envoy,
		Paper:          true,
		NewEnv:         func() Env { return k8scmd.NewEnv() },
		ImpliedImages:  []string{"envoyproxy/envoy:v1.27"},
		Marker:         "static_resources",
		HasKind:        false,
		DifficultyBase: 0.55,
	},
	{
		Category:       dataset.Istio,
		Paper:          true,
		NewEnv:         func() Env { return k8scmd.NewEnv() },
		ImpliedImages:  []string{"istio/pilot:1.19"},
		Marker:         "kind",
		HasKind:        true,
		DifficultyBase: 0.25,
	},
	{
		Category:       dataset.Compose,
		NewEnv:         func() Env { return composesim.NewEnv() },
		ImpliedImages:  []string{"docker/compose-bin:v2.24"},
		Marker:         "services",
		HasKind:        false,
		DifficultyBase: 0.10,
		PromptHint:     "Answer with a single Docker Compose YAML file (a top-level services mapping).",
	},
	{
		Category:       dataset.Helm,
		NewEnv:         func() Env { return helmsim.NewEnv() },
		ImpliedImages:  []string{"alpine/helm:3.14", "registry.k8s.io/pause:3.9"},
		Marker:         "kind",
		HasKind:        true,
		DifficultyBase: 0.20,
		PromptHint:     "Answer with the Kubernetes manifests the Helm chart renders; they will be installed with `helm install -f`.",
	},
}
