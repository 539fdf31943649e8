package llm

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"

	"cloudeval/internal/dataset"
	"cloudeval/internal/lagfib"
	"cloudeval/internal/scenario"
	"cloudeval/internal/yamlmatch"
	"cloudeval/internal/yamlx"
)

// GenOptions controls one generation.
type GenOptions struct {
	// Sample selects an independent sample stream (pass@k). Sample 0 at
	// Temperature 0 is the model's greedy answer.
	Sample int
	// Temperature > 0 lets samples differ; 0 pins every sample to the
	// greedy answer.
	Temperature float64
	// Shots is the number of few-shot examples in the prompt (0–3).
	Shots int
}

// Generate produces the model's raw response text for a problem. The
// response typically wraps YAML in the model's characteristic dressing;
// run Postprocess to extract clean YAML.
func (m Model) Generate(p dataset.Problem, opts GenOptions) string {
	rng := m.rng(p, opts, true)
	defer rngPool.Put(rng)
	latent := m.rng(p, opts, false)
	defer rngPool.Put(latent)
	cat := m.drawCategory(p, opts, rng, latent)
	// Functional mistakes (which fields are wrong) are a property of the
	// problem, not the sample: real models get the same thing wrong on
	// every retry. Textual presentation still varies per sample.
	answer := m.emit(cat, p, latent, rng)
	return wrap(m.Profile.Wrap, answer, cat, rng)
}

// rngPool recycles generators between generations. The front end is
// math/rand's, so Float64, Intn and NormFloat64 are its own; the source
// is lagfib's, which yields math/rand's stream for every seed but seeds
// in constant time — a generation draws a dozen or two numbers, and a
// math/rand source would expand all 607 words of state for them, twice.
// A re-seeded source keeps nothing of the stream it gave before.
var rngPool = sync.Pool{New: func() any { return rand.New(lagfib.New(0)) }}

// rng draws a generator from rngPool seeded for a deterministic
// stream; the caller puts it back when done.
func (m Model) rng(p dataset.Problem, opts GenOptions, perSample bool) *rand.Rand {
	r := rngPool.Get().(*rand.Rand)
	r.Seed(m.seed(p, opts, perSample))
	return r
}

// seed derives a stream's seed. With perSample, the stream varies
// by sample index (at temperature > 0), shot count and question
// variant; otherwise it depends only on (model, base problem) — the
// problem's latent stream. Competence is a property of the model and
// the task: rephrasing the question (simplified/translated) or adding
// few-shot examples shifts the success odds through the profile
// factors, it does not re-roll every problem. That is what keeps
// Tables 5-6's deltas small and pass@k gains bounded, as in the paper.
func (m Model) seed(p dataset.Problem, opts GenOptions, perSample bool) int64 {
	sample, shots := opts.Sample, opts.Shots
	variant := string(p.Variant)
	id := p.ID
	if opts.Temperature == 0 {
		sample = 0
	}
	if !perSample {
		sample, shots, variant = 0, 0, ""
		id = strings.TrimSuffix(strings.TrimSuffix(id, "-s"), "-t")
	}
	// The stream tag keeps the two streams distinct even when all other
	// components coincide; without it the category draw and the cosmetic
	// draws would correlate perfectly.
	tag := "latent"
	if perSample {
		tag = "sample"
	}
	// FNV-1a over "tag|model|id|variant|shots|sample".
	h := fnvOffset64
	h = h.str(tag).str("|").str(m.Name).str("|").str(id).str("|").str(variant).str("|")
	return int64(h.int(shots).str("|").int(sample))
}

// fnv64a is a running 64-bit FNV-1a hash, inline so that deriving a
// seed formats and allocates nothing.
type fnv64a uint64

const (
	fnvOffset64 fnv64a = 14695981039346656037
	fnvPrime64  fnv64a = 1099511628211
)

func (h fnv64a) str(s string) fnv64a {
	for i := 0; i < len(s); i++ {
		h = (h ^ fnv64a(s[i])) * fnvPrime64
	}
	return h
}

func (h fnv64a) int(n int) fnv64a {
	var buf [20]byte
	for _, c := range strconv.AppendInt(buf[:0], int64(n), 10) {
		h = (h ^ fnv64a(c)) * fnvPrime64
	}
	return h
}

// Difficulty scores a problem in [0,1]: the family's base difficulty
// (Envoy hardest, per its scenario backend), then by solution length,
// echoing the paper's Figure 6 analysis.
func Difficulty(p dataset.Problem) float64 {
	base := scenario.For(p.Category).DifficultyBase
	lines := p.SolutionLines()
	var lengthTerm float64
	switch {
	case lines < 15:
		lengthTerm = 0.15
	case lines < 30:
		lengthTerm = 0.35
	default:
		lengthTerm = 0.50
	}
	d := base + lengthTerm
	if d > 1 {
		d = 1
	}
	return d
}

// drawCategory samples the Figure 7 failure category for this response.
func (m Model) drawCategory(p dataset.Problem, opts GenOptions, rng, latent *rand.Rand) int {
	w := m.Profile.CatWeights
	// Difficulty moves success odds down; the lost mass lands on
	// "plausible but wrong" (category 5) and "incomplete" (category 3).
	// Easy problems never boost success above the base rate.
	d := Difficulty(p)
	excess := d - 0.2
	if excess < 0 {
		excess = 0
	}
	factor := math.Exp(-m.Profile.DifficultySlope * excess)
	// Variant sensitivity (Table 5).
	switch p.Variant {
	case dataset.Simplified:
		factor *= m.Profile.SimplifiedFactor
	case dataset.Translated:
		factor *= m.Profile.TranslatedFactor
	}
	// Few-shot sensitivity (Table 6).
	if opts.Shots > 0 && opts.Shots < len(m.Profile.ShotFactors) {
		if f := m.Profile.ShotFactors[opts.Shots]; f > 0 {
			factor *= f
		}
	}
	p6 := w[5] * factor
	if p6 > 0.98 {
		p6 = 0.98
	}
	lost := w[5] - p6
	w[5] = p6
	w[4] += lost * 0.7
	w[2] += lost * 0.3
	total := 0.0
	for _, v := range w {
		total += v
	}
	// Draw against a per-problem latent position u: the same problem
	// lands in the same region of the category distribution on every
	// sample, so failures correlate across samples the way real models'
	// do. Temperature adds a small per-sample jitter around u; only
	// problems near a category boundary flip, which is what bounds the
	// pass@k gains to the paper's 30-40% rather than 1-(1-p)^k.
	u := latent.Float64()
	if opts.Temperature > 0 {
		u += m.Profile.SampleSigma * opts.Temperature * rng.NormFloat64()
		// Reflect into [0,1) to preserve the marginal distribution.
		u = math.Abs(u)
		if u >= 2 {
			u = math.Mod(u, 2)
		}
		if u >= 1 {
			u = 2 - u - 1e-12
		}
	}
	x := u * total
	for i, v := range w {
		if x < v {
			return i + 1
		}
		x -= v
	}
	return 6
}

// emit renders the answer text for a category. Functional content draws
// from the latent (per-problem) stream; cosmetic variation draws from
// the per-sample stream.
func (m Model) emit(cat int, p dataset.Problem, latent, rng *rand.Rand) string {
	c := contextFor(p)
	switch cat {
	case 1: // empty or under three lines
		options := []string{"", "apiVersion: v1", "I cannot help with that.", "yaml"}
		return options[rng.Intn(len(options))]
	case 2: // longer prose without a kind field
		return "To accomplish this task you would configure the resource with the appropriate\n" +
			"settings for your cluster. First create the object, then verify it with kubectl.\n" +
			"The most important settings are the selector and the labels, which must agree.\n" +
			"Afterwards, check the status and repeat as needed until everything is healthy.\n"
	case 3: // contains kind but the YAML is cut off / broken
		return truncateYAML(c, rng)
	case 4: // valid YAML, wrong kind
		if !scenario.For(p.Category).HasKind {
			// Families without document kinds (Envoy bootstraps, Compose
			// files) have nothing to swap; a confused answer of the
			// "wrong flavor" is a functionally wrong config instead.
			return corruptYAML(c, latent)
		}
		return wrongKind(c, latent)
	case 5: // valid YAML, right kind, functionally wrong
		return corruptYAML(c, latent)
	default: // correct
		if rng.Float64() < m.Profile.NoiseWhenCorrect {
			return harmlessNoise(c, rng)
		}
		return c.clean
	}
}

// truncateYAML cuts the reference somewhere after the kind line and may
// break indentation, producing category 3 answers.
func truncateYAML(c *genContext, rng *rand.Rand) string {
	lines := len(c.lineEnds)
	if lines < 4 {
		return c.clean[:len(c.clean)/2]
	}
	maxCut := lines - 2
	if maxCut < 4 {
		maxCut = 4
	}
	cut := 3 + rng.Intn(maxCut-3)
	if cut > lines {
		cut = lines
	}
	// Leave a dangling flow value so the document is unparsable.
	return c.clean[:c.lineEnds[cut-1]] + "\n  spec: [unterminated\n"
}

// wrongKind swaps the resource kind for a plausible but wrong one.
func wrongKind(c *genContext, rng *rand.Rand) string {
	alternatives := []string{"Pod", "Deployment", "Service", "ConfigMap", "ReplicaSet"}
	var doc *yamlx.Node // the first document that is not null, as yamlx.Parse picks it
	for _, d := range c.docs {
		if d != nil && d.Kind != yamlx.NullKind {
			doc = d
			break
		}
	}
	if doc == nil || doc.Kind != yamlx.MapKind {
		return c.clean
	}
	a := arenas.Get().(*arena)
	defer a.release()
	cur := doc.Get("kind").ScalarString()
	alt := alternatives[rng.Intn(len(alternatives))]
	for alt == cur {
		alt = alternatives[rng.Intn(len(alternatives))]
	}
	return c.tmpl.Marshal(a.own(doc).Set("kind", a.String(alt)))
}

// corruptYAML perturbs functional leaves of the reference: numeric
// values drift, strings get mangled, or a required subtree is dropped.
// The result stays valid YAML with the right kind but fails the unit
// test: corruption is biased toward leaves whose values the unit-test
// script actually asserts on, which is what "plausible but wrong"
// answers get wrong in practice.
func corruptYAML(c *genContext, rng *rand.Rand) string {
	if len(c.docs) == 0 {
		return c.clean
	}
	a := arenas.Get().(*arena)
	defer a.release()
	docs := a.docs(c.docs)
	// Corrupt most tested leaves (at least one), then a random leaf or
	// two for texture.
	mutated := 0
	for i, path := range c.tested {
		if i > 0 && rng.Float64() > 0.8 {
			continue
		}
		last := len(path) - 1
		parent := a.ownPath(docs, path[:last])
		setChild(parent, path[last], a.mutateScalar(child(parent, path[last]), rng))
		mutated++
	}
	if mutated == 0 {
		// Nothing observable found: break the document structurally by
		// dropping the spec subtree of the first document.
		if docs[0].Kind == yamlx.MapKind {
			docs[0] = a.own(docs[0])
			docs[0].Delete("spec")
			docs[0].Delete("data")
			docs[0].Delete("subjects")
		}
	}
	edits := 1 + rng.Intn(2)
	for i := 0; i < edits; i++ {
		a.corruptNode(docs, rng.Intn(len(docs)), rng)
	}
	return c.tmpl.MarshalAll(docs)
}

// corruptNode walks down from document doc, one random child a level,
// to a scalar it mutates or a subtree it drops. Nothing is copied until
// the walk knows what it changes; then the nodes on the way there are.
func (a *arena) corruptNode(docs []*yamlx.Node, doc int, rng *rand.Rand) {
	var buf [16]int
	path := append(buf[:0], doc) // the document, then child positions down to n
	for n := docs[doc]; n != nil && n.Len() > 0; {
		idx := rng.Intn(n.Len())
		if n.Kind == yamlx.MapKind {
			// Never corrupt kind/apiVersion here (that is category 4's job).
			if k := n.Entries[idx].Key; k == "kind" || k == "apiVersion" {
				idx = (idx + 1) % len(n.Entries)
				if k := n.Entries[idx].Key; k == "kind" || k == "apiVersion" {
					return
				}
			}
		}
		v := child(n, idx)
		if v.IsScalar() {
			setChild(a.ownPath(docs, path), idx, a.mutateScalar(v, rng))
			return
		}
		if n.Kind == yamlx.MapKind && len(path) > 2 && rng.Float64() < 0.25 {
			// Drop an entire subtree.
			n = a.ownPath(docs, path)
			n.Entries = append(n.Entries[:idx], n.Entries[idx+1:]...)
			return
		}
		path = append(path, idx)
		n = v
	}
}

func (a *arena) mutateScalar(v *yamlx.Node, rng *rand.Rand) *yamlx.Node {
	switch v.Kind {
	case yamlx.IntKind:
		delta := int64(1 + rng.Intn(9))
		if rng.Intn(2) == 0 && v.Int > delta {
			delta = -delta
		}
		return a.Integer(v.Int + delta)
	case yamlx.BoolKind:
		n := a.Node()
		n.Kind, n.Bool = yamlx.BoolKind, !v.Bool
		return n
	case yamlx.StringKind:
		s := v.Str
		// Mangle the middle so substring assertions fail too.
		if len(s) > 3 {
			mid := 1 + rng.Intn(len(s)-2)
			c := "x"
			if s[mid] == 'x' {
				c = "q"
			}
			return a.String(s[:mid] + c + s[mid+1:])
		}
		return a.String(s + "x")
	default:
		return a.String("changed")
	}
}

// harmlessNoise rewrites the reference without changing semantics the
// unit test observes: map keys reorder, wildcard-labeled names change,
// set-labeled values pick another allowed member. Text metrics drop;
// KV-wildcard and unit tests stay at 1.
func harmlessNoise(c *genContext, rng *rand.Rand) string {
	if c.labeled == nil {
		return c.clean
	}
	a := arenas.Get().(*arena)
	defer a.release()
	docs := a.docs(c.noiseBase)
	for i, doc := range docs {
		docs[i] = a.applyHarmless(c, doc, rng)
	}
	out := yamlmatch.StripLabels(c.noiseTmpl.MarshalAll(docs))
	if textEqual(out, c.clean) {
		// Noise is supposed to be visible: rotate the trailing top-level
		// entries of the first document (YAML-legal, semantics intact).
		if doc := docs[0]; doc.Kind == yamlx.MapKind && len(doc.Entries) >= 3 {
			doc = a.own(doc)
			last := len(doc.Entries) - 1
			e := doc.Entries[last]
			copy(doc.Entries[2:], doc.Entries[1:last])
			doc.Entries[1] = e
			docs[0] = doc
			out = yamlmatch.StripLabels(c.noiseTmpl.MarshalAll(docs))
		}
	}
	return out
}

func textEqual(a, b string) bool {
	return strings.TrimSpace(a) == strings.TrimSpace(b)
}

// applyHarmless returns n with the noise applied: n itself where the
// draws change nothing below it, else a copy of the nodes down to each
// change. The label comments are already off (see genContext.noiseBase).
func (a *arena) applyHarmless(c *genContext, n *yamlx.Node, rng *rand.Rand) *yamlx.Node {
	if n == nil {
		return nil
	}
	switch n.Kind {
	case yamlx.MapKind:
		// Shuffle top-level-entry order occasionally (YAML-legal).
		if len(n.Entries) > 1 && rng.Float64() < 0.4 {
			i, j := rng.Intn(len(n.Entries)), rng.Intn(len(n.Entries))
			if i != j && n.Entries[i].Key != "apiVersion" && n.Entries[j].Key != "apiVersion" {
				n = a.own(n)
				n.Entries[i], n.Entries[j] = n.Entries[j], n.Entries[i]
			}
		}
		for i := range n.Entries {
			v := n.Entries[i].Value
			nv := v
			if !v.IsScalar() {
				nv = a.applyHarmless(c, v, rng)
			} else if label := c.labelOf(v); label != nil && rng.Float64() < 0.85 {
				if label.Kind == yamlmatch.SetLabel {
					nv = a.String(label.Values[rng.Intn(len(label.Values))])
				} else {
					nv = a.String("alt-" + v.ScalarString())
				}
				nv.Quoted = v.Quoted // the value changes, the way it was written does not
			}
			if nv != v {
				n = a.own(n)
				n.Entries[i].Value = nv
			}
		}
	case yamlx.SeqKind:
		for i, it := range n.Items {
			if nit := a.applyHarmless(c, it, rng); nit != it {
				n = a.own(n)
				n.Items[i] = nit
			}
		}
	}
	return n
}

// wrap dresses an answer in the model's response style.
func wrap(style WrapStyle, answer string, cat int, rng *rand.Rand) string {
	if cat <= 2 {
		return answer // degenerate answers are returned bare
	}
	switch style {
	case WrapMarkdown:
		return "Sure! Here's the configuration you asked for:\n```yaml\n" + answer + "```\nLet me know if you need changes.\n"
	case WrapHere:
		return "Here is the YAML file that satisfies the requirements:\n" + answer
	case WrapCodeTags:
		return "<code>\n" + answer + "</code>\n"
	case WrapLatex:
		return "\\begin{code}\n" + answer + "\\end{code}\n"
	case WrapSolution:
		return "START SOLUTION\n" + answer + "END SOLUTION\n"
	default:
		return answer
	}
}
