package yamlmatch

import (
	"math"
	"testing"
)

// refSeeds are the YAML texts a compiled Ref is most likely to read
// differently from the two-string forms: every label kind, labels
// inside block scalars, multi-document streams with empty documents,
// duplicate keys and keys that spell another leaf's path, empty
// containers, scalars of every kind, and text that does not parse.
var refSeeds = []string{
	"",
	"---\n",
	"a: 1\n",
	"a: 1 # *\n",
	"a: 1 # v in [1, 2]\n",
	"a: x # v in ['x', \"y\", 3, 4.5, true, null]\n",
	"a: 2\n",
	"a: \"1\"\n",
	"a: 4.5\nb: 0.50\nc: 1e3\nd: true\ne: null\nf: ~\n",
	"a: 1\na: 2\n",
	"a: 2\na: 1\n",
	"a: 1 # *\na: 2\n",
	"a: 2\na: 3\na: 1\n",
	"a.b: 1\na:\n  b: 2\n",
	"a:\n  b: 2\na.b: 1\n",
	"a:\n- x\n- y\n\"a[0]\": z\n",
	"a: {}\nb: []\n",
	"a: {} # *\nb: [] # v in ['[]']\n",
	"a:\n  b: {}\n",
	"- 1\n- 2\n",
	"- 2\n- 1\n- 3\n",
	"just a scalar\n",
	"a: 1\n---\nb: 2\n",
	"a: 1\n---\n---\nb: 2 # *\n",
	"b: 2\n---\na: 1\n",
	"a: 1\n---\nb: 2\n---\nc: 3\n",
	"script: |\n  echo hi # *\n  exit 0\n",
	"script: |\n  echo hi\n  exit 0\n",
	"a: [unterminated\n",
	"a: 1\n  b: 2\n",
	"\tx\n",
	"a: \xff\n",
	labeledDaemonSet,
	StripLabels(labeledDaemonSet),
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func checkRef(t testing.TB, generated, reference string) {
	t.Helper()
	r := NewRef(reference)
	wantExact, wantWild := KVExactMatch(generated, StripLabels(reference)), KVWildcardMatch(generated, reference)
	exact, wild := r.Score(generated)
	if !sameBits(exact, wantExact) || !sameBits(wild, wantWild) {
		t.Errorf("Ref(%q).Score(%q) = %v, %v; two-string forms = %v, %v", reference, generated, exact, wild, wantExact, wantWild)
	}
}

func eachSeedPair(f func(generated, reference string)) {
	for _, ref := range refSeeds {
		for _, gen := range refSeeds {
			f(gen, ref)
		}
	}
}

func TestRefMatchesTwoStringOnSeeds(t *testing.T) {
	eachSeedPair(func(generated, reference string) { checkRef(t, generated, reference) })
}

func FuzzYAMLRefMatchesKV(f *testing.F) {
	eachSeedPair(func(generated, reference string) { f.Add(generated, reference) })
	f.Fuzz(func(t *testing.T, generated, reference string) {
		checkRef(t, generated, reference)
	})
}
