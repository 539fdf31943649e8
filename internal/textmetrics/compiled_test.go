package textmetrics

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"cloudeval/internal/raceflag"
)

const (
	podYAML       = "apiVersion: v1\nkind: Pod\nmetadata:\n  name: web\n"
	podYAMLBlanks = "apiVersion: v1  \nkind: Pod\t\n\nmetadata:\n  name: web   \n\n\n"
	repeatedLines = "- a\n- b\n- a\n- b\n- a\n"
	invalidUTF8   = "name: \xff\xfe\n"
)

// kernelSeeds are the texts the compiled kernels are most likely to
// read differently from the two-string forms: line endings, trailing
// and surrounding blanks, invalid UTF-8 next to a real U+FFFD, empty
// and one-token inputs, repeated lines and repeated n-grams.
var kernelSeeds = []string{
	"",
	"\n",
	"\n\n\n",
	"a",
	"kind",
	"kind: Pod",
	"a b c d",
	"a b c d e f g h",
	"a a a a a a a a",
	podYAML,
	"apiVersion: v1\r\nkind: Pod\r\nmetadata:\r\n  name: web\r\n",
	podYAMLBlanks,
	"\n\n  \napiVersion: v1\nkind: Pod\n",
	"apiVersion: v1\n\n\nkind: Pod",
	"kind: Pod\r",
	"kind: Pod\r\r\n",
	"\r\nkind: Pod",
	"a\n \nb\n",
	"a\n\v\nb\n",
	"x\n x\nx \nx\n",
	repeatedLines,
	"- b\n- a\n- b\n",
	invalidUTF8,
	"name: \ufffd\xff\n",
	"\xffkind\xff",
	"\xed\xa0\x80",
	"名前: テスト\n種類: ポッド\n",
	"a_b-c.d: e,f;g\n",
	"k: [1, 2, 3]\nm: {a: b}\n",
	strings.Repeat("x: 1\n", 40),
}

func eachSeedPair(f func(candidate, reference string)) {
	for _, ref := range kernelSeeds {
		for _, cand := range kernelSeeds {
			f(cand, ref)
		}
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func checkBLEURef(t testing.TB, candidate, reference string) {
	t.Helper()
	got, want := NewBLEURef(reference).Score(candidate), BLEU(candidate, reference)
	if !sameBits(got, want) {
		t.Errorf("BLEURef(%q).Score(%q) = %v, BLEU = %v", reference, candidate, got, want)
	}
}

func checkLineRef(t testing.TB, candidate, reference string) {
	t.Helper()
	r := NewLineRef(reference)
	if got, want := r.EditDistanceScore(candidate), EditDistanceScore(candidate, reference); !sameBits(got, want) {
		t.Errorf("LineRef(%q).EditDistanceScore(%q) = %v, two-string form = %v", reference, candidate, got, want)
	}
	if got, want := r.ExactMatch(candidate), ExactMatch(candidate, reference); !sameBits(got, want) {
		t.Errorf("LineRef(%q).ExactMatch(%q) = %v, two-string form = %v", reference, candidate, got, want)
	}
}

func TestCompiledMatchesTwoStringOnSeeds(t *testing.T) {
	eachSeedPair(func(candidate, reference string) {
		checkBLEURef(t, candidate, reference)
		checkLineRef(t, candidate, reference)
	})
}

func TestNextTokenYieldsTokenize(t *testing.T) {
	for _, s := range kernelSeeds {
		var got []string
		for i := 0; ; {
			tok, next, ok := nextToken(s, i)
			if !ok {
				break
			}
			got, i = append(got, tok), next
		}
		if want := Tokenize(s); strings.Join(got, "\x00") != strings.Join(want, "\x00") {
			t.Errorf("nextToken over %q = %q, Tokenize = %q", s, got, want)
		}
	}
}

// collidingTokens returns two word tokens with the same tokenHash, so
// that they share a home cell in a vocabulary table of any size.
func collidingTokens(t testing.TB) (a, b string) {
	byHash := make(map[uint32]string)
	for i := 0; i < 1<<22; i++ { // a 32-bit birthday: ~80k tokens expected
		tok := "t" + strconv.Itoa(i)
		h := tokenHash(tok)
		if prev, ok := byHash[h]; ok {
			return prev, tok
		}
		byHash[h] = tok
	}
	t.Fatal("no two tokens with equal tokenHash")
	return "", ""
}

// bleuRefSeeds are (candidate, reference) pairs aimed at BLEURef's
// tables: where a walk from unigram to 4-gram stops, what an unknown
// token does to it, and the cells that double as markers.
func bleuRefSeeds(t testing.TB) [][2]string {
	const ref = "a b c d e f"
	x, y := collidingTokens(t)
	return [][2]string{
		{"q r s t u", ref}, // every token unknown
		{"Z b c d e", ref}, // an unknown token at each position of a matching 4-gram
		{"a Z c d e", ref},
		{"a b Z d e", ref},
		{"a b c Z e", ref},
		{"a b c d Z", ref},
		{"a b c d", ref},
		{"a a a a a b a c", "a b a c"}, // id and slot 0 used beyond its reference count
		{"a a a a", "a a a"},           // the bigram (slot 0, id 0), whose key is the empty cell's
		{"a", "a"},                     // a reference of one token: no extension at all
		{"a a", "a"},
		{"b", "a"},
		{"a b c d", "a"},
		{x + " " + y + " " + x + " " + y, x + " " + y + " " + x + " " + y + " " + x}, // one home cell, two tokens
		{y + " " + x, x + " " + y},
		{y, x},
	}
}

func FuzzBLEURefMatchesBLEU(f *testing.F) {
	eachSeedPair(func(candidate, reference string) { f.Add(candidate, reference) })
	for _, s := range bleuRefSeeds(f) {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, candidate, reference string) {
		checkBLEURef(t, candidate, reference)
	})
}

func FuzzLineRefMatchesEditDistance(f *testing.F) {
	eachSeedPair(func(candidate, reference string) { f.Add(candidate, reference) })
	f.Fuzz(func(t *testing.T, candidate, reference string) {
		checkLineRef(t, candidate, reference)
	})
}

// TestCompiledKernelsDoNotAllocate pins the steady state: once the
// pooled scratch has grown to the reference, scoring a candidate
// allocates nothing.
func TestCompiledKernelsDoNotAllocate(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	candidates := []string{podYAML, podYAMLBlanks, repeatedLines, invalidUTF8, ""}
	bleu, lines := NewBLEURef(podYAML), NewLineRef(podYAML)
	for _, c := range candidates {
		for name, f := range map[string]func(){
			"BLEURef.Score":             func() { bleu.Score(c) },
			"LineRef.EditDistanceScore": func() { lines.EditDistanceScore(c) },
			"LineRef.ExactMatch":        func() { lines.ExactMatch(c) },
		} {
			if n := testing.AllocsPerRun(100, f); n != 0 {
				t.Errorf("%s(%q): %v allocs per call, want 0", name, c, n)
			}
		}
	}
}
