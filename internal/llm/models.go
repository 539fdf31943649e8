// Package llm provides the model layer of the benchmark: a uniform
// query interface, the §3.1 post-processing that extracts clean YAML
// from chatty responses, and a family of twelve simulated models.
//
// Substitution note (see DESIGN.md): the paper queries real proprietary
// and open-source LLMs. Offline, each model is simulated as a
// deterministic noisy channel over the problem's reference answer,
// parameterized by a quality profile — the distribution over the six
// failure categories of Figure 7, difficulty sensitivity, response
// wrapping style, and sensitivities to simplified/translated questions
// and few-shot prompts. The benchmark framework only ever sees
// (prompt -> text), so every downstream code path (post-processing,
// six-metric scoring, cluster evaluation, failure analysis, pass@k,
// prediction) is exercised exactly as with real models.
package llm

// Profile parameterizes a simulated model.
type Profile struct {
	// CatWeights is the base probability of emitting each Figure 7
	// category on a median-difficulty problem:
	// [empty, noKind, incomplete, wrongKind, plausibleButWrong, correct].
	CatWeights [6]float64
	// DifficultySlope scales how steeply correctness decays as problem
	// difficulty grows (0 = insensitive).
	DifficultySlope float64
	// NoiseWhenCorrect is the chance that a correct answer still differs
	// textually from the reference (key reordering, renamed wildcard
	// fields, alternate set-label values) — it passes unit tests and
	// KV-wildcard but depresses text-level metrics.
	NoiseWhenCorrect float64
	// SimplifiedFactor and TranslatedFactor multiply the odds of a
	// correct answer on augmented questions (Table 5). 1 = unaffected.
	SimplifiedFactor float64
	TranslatedFactor float64
	// ShotFactors multiply correctness odds for 1/2/3-shot prompts
	// (Table 6). Missing entries mean 1.
	ShotFactors [4]float64
	// Wrap selects the response dressing the post-processor must strip.
	Wrap WrapStyle
	// Temperature-controlled sample diversity: at temperature t, the
	// category draw for sample k uses an independent stream. Sigma
	// controls how much per-sample luck varies (pass@k slope).
	SampleSigma float64
}

// WrapStyle is how a model dresses its YAML answer.
type WrapStyle int

// Wrap styles observed across real models (§3.1).
const (
	WrapPlain    WrapStyle = iota // bare YAML
	WrapMarkdown                  // ```yaml fences with a short preamble
	WrapHere                      // "Here is the YAML..." preamble
	WrapCodeTags                  // <code>...</code>
	WrapLatex                     // \begin{code}...\end{code}
	WrapSolution                  // START SOLUTION ... END SOLUTION
)

// Model is one entry of the benchmark's model zoo.
type Model struct {
	Name       string
	Size       string
	OpenSource bool
	// EnglishOnly marks APIs that reject non-English prompts (the paper
	// footnotes PaLM); aggregation excludes translated questions.
	EnglishOnly bool
	Profile     Profile
}

// Models is the twelve-model zoo of Table 4, in the paper's ranking
// order. CatWeights are calibrated so the corpus-average unit-test
// scores land near the paper's: GPT-4 0.515, GPT-3.5 0.412,
// PaLM-2 0.322, Llama-2-70b 0.085 ... Codellama-13b 0.012, and so the
// Figure 7 category mixes match where the paper reports them.
var Models = []Model{
	{
		Name: "gpt-4", Size: "?", OpenSource: false,
		Profile: Profile{
			// Figure 7 (GPT-4): 8/1/42/30/77/179 of 337.
			CatWeights:       [6]float64{0.024, 0.003, 0.105, 0.079, 0.178, 0.610},
			DifficultySlope:  1.1,
			NoiseWhenCorrect: 0.80,
			SimplifiedFactor: 0.92, TranslatedFactor: 0.99,
			ShotFactors: [4]float64{1, 1.02, 1.0, 1.04},
			Wrap:        WrapMarkdown,
			SampleSigma: 0.06,
		},
	},
	{
		Name: "gpt-3.5", Size: "?", OpenSource: false,
		Profile: Profile{
			CatWeights:       [6]float64{0.03, 0.01, 0.13, 0.09, 0.24, 0.50},
			DifficultySlope:  1.3,
			NoiseWhenCorrect: 0.79,
			SimplifiedFactor: 1.01, TranslatedFactor: 0.93,
			ShotFactors: [4]float64{1, 1.06, 1.01, 1.09},
			Wrap:        WrapHere,
			SampleSigma: 0.09,
		},
	},
	{
		Name: "palm-2-bison", Size: "?", OpenSource: false, EnglishOnly: true,
		Profile: Profile{
			CatWeights:       [6]float64{0.04, 0.02, 0.15, 0.11, 0.27, 0.41},
			DifficultySlope:  1.5,
			NoiseWhenCorrect: 0.85,
			SimplifiedFactor: 0.82, TranslatedFactor: 0, // English-only API
			ShotFactors: [4]float64{1, 1.02, 1.0, 1.03},
			Wrap:        WrapPlain,
			SampleSigma: 0.08,
		},
	},
	{
		Name: "llama-2-70b-chat", Size: "70B", OpenSource: true,
		Profile: Profile{
			// Figure 7 (Llama-2-70B): 0/2/88/37/180/30 of 337.
			CatWeights:       [6]float64{0.00, 0.006, 0.261, 0.110, 0.534, 0.089},
			DifficultySlope:  2.2,
			NoiseWhenCorrect: 0.99,
			SimplifiedFactor: 0.80, TranslatedFactor: 1.07,
			ShotFactors: [4]float64{1, 0.77, 0.87, 0.97},
			Wrap:        WrapHere,
			SampleSigma: 0.015,
		},
	},
	{
		Name: "llama-2-13b-chat", Size: "13B", OpenSource: true,
		Profile: Profile{
			CatWeights:       [6]float64{0.01, 0.01, 0.28, 0.12, 0.518, 0.062},
			DifficultySlope:  2.4,
			NoiseWhenCorrect: 0.99,
			SimplifiedFactor: 0.65, TranslatedFactor: 0.96,
			ShotFactors: [4]float64{1, 1.0, 1.0, 1.0},
			Wrap:        WrapHere,
			SampleSigma: 0.015,
		},
	},
	{
		Name: "wizardcoder-34b-v1.0", Size: "34B", OpenSource: true,
		Profile: Profile{
			CatWeights:       [6]float64{0.02, 0.02, 0.30, 0.13, 0.479, 0.051},
			DifficultySlope:  2.4,
			NoiseWhenCorrect: 0.88,
			SimplifiedFactor: 1.29, TranslatedFactor: 0.08, // collapses on zh
			ShotFactors: [4]float64{1, 1.0, 1.0, 1.0},
			Wrap:        WrapMarkdown,
			SampleSigma: 0.015,
		},
	},
	{
		Name: "llama-2-7b-chat", Size: "7B", OpenSource: true,
		Profile: Profile{
			// Figure 7 (Llama-2-7B): 2/2/97/42/181/13 of 337.
			CatWeights:       [6]float64{0.006, 0.006, 0.288, 0.125, 0.553, 0.023},
			DifficultySlope:  2.6,
			NoiseWhenCorrect: 0.99,
			SimplifiedFactor: 0.69, TranslatedFactor: 0.38,
			ShotFactors: [4]float64{1, 1.08, 1.0, 1.15},
			Wrap:        WrapHere,
			SampleSigma: 0.010,
		},
	},
	{
		Name: "wizardcoder-15b-v1.0", Size: "15B", OpenSource: true,
		Profile: Profile{
			CatWeights:       [6]float64{0.03, 0.03, 0.33, 0.14, 0.442, 0.028},
			DifficultySlope:  2.6,
			NoiseWhenCorrect: 0.95,
			SimplifiedFactor: 0.92, TranslatedFactor: 0.25,
			ShotFactors: [4]float64{1, 1.0, 1.0, 1.0},
			Wrap:        WrapSolution,
			SampleSigma: 0.010,
		},
	},
	{
		Name: "llama-7b", Size: "7B", OpenSource: true,
		Profile: Profile{
			CatWeights:       [6]float64{0.10, 0.12, 0.35, 0.12, 0.285, 0.028},
			DifficultySlope:  2.8,
			NoiseWhenCorrect: 0.85,
			SimplifiedFactor: 0.58, TranslatedFactor: 0.33,
			ShotFactors: [4]float64{1, 1.0, 1.0, 1.0},
			Wrap:        WrapPlain,
			SampleSigma: 0.010,
		},
	},
	{
		Name: "llama-13b-lora", Size: "13B", OpenSource: true,
		Profile: Profile{
			CatWeights:       [6]float64{0.11, 0.13, 0.35, 0.12, 0.271, 0.019},
			DifficultySlope:  2.8,
			NoiseWhenCorrect: 0.95,
			SimplifiedFactor: 1.13, TranslatedFactor: 0.5,
			ShotFactors: [4]float64{1, 1.0, 1.0, 1.0},
			Wrap:        WrapLatex,
			SampleSigma: 0.010,
		},
	},
	{
		Name: "codellama-7b-instruct", Size: "7B", OpenSource: true,
		Profile: Profile{
			CatWeights:       [6]float64{0.05, 0.06, 0.38, 0.15, 0.347, 0.014},
			DifficultySlope:  3.0,
			NoiseWhenCorrect: 0.95,
			SimplifiedFactor: 1.2, TranslatedFactor: 0.8,
			ShotFactors: [4]float64{1, 1.0, 1.0, 1.0},
			Wrap:        WrapCodeTags,
			SampleSigma: 0.008,
		},
	},
	{
		Name: "codellama-13b-instruct", Size: "13B", OpenSource: true,
		Profile: Profile{
			CatWeights:       [6]float64{0.05, 0.06, 0.40, 0.16, 0.323, 0.007},
			DifficultySlope:  3.0,
			NoiseWhenCorrect: 0.93,
			SimplifiedFactor: 0.4, TranslatedFactor: 1.0,
			ShotFactors: [4]float64{1, 1.0, 1.0, 1.0},
			Wrap:        WrapMarkdown,
			SampleSigma: 0.008,
		},
	},
}

// modelsByName is built once at init: ByName is on the per-generation
// path (trace replays, server eval requests), so it must not rescan
// the zoo.
var modelsByName = func() map[string]Model {
	m := make(map[string]Model, len(Models))
	for _, mm := range Models {
		m[mm.Name] = mm
	}
	return m
}()

// ByName returns the model with the given name.
func ByName(name string) (Model, bool) {
	m, ok := modelsByName[name]
	return m, ok
}
