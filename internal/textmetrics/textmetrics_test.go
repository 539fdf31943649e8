package textmetrics

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	got := Tokenize("apiVersion: apps/v1 kind: Deployment")
	want := []string{"apiVersion", ":", "apps", "/", "v1", "kind", ":", "Deployment"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokenize = %v, want %v", got, want)
	}
	if len(Tokenize("")) != 0 {
		t.Error("empty input should yield no tokens")
	}
}

// tokenizeEstimate is the tokenizer-based definition EstimateTokens
// must match: one token per character for CJK-leading words, subword
// pieces of ~4 characters otherwise, long words once more.
func tokenizeEstimate(s string) int {
	n := 0
	for _, tok := range Tokenize(s) {
		runes := []rune(tok)
		if isCJK(runes[0]) {
			n += len(runes)
			continue
		}
		n += (len(runes) + 3) / 4
		if len(runes) > 4 {
			n++
		}
	}
	return n
}

// TestEstimateTokensMatchesTokenize pins the streaming allocation-free
// EstimateTokens to the tokenizer-based definition it replaced, across
// English, CJK, mixed scripts, punctuation runs, and YAML shapes.
func TestEstimateTokensMatchesTokenize(t *testing.T) {
	cases := []string{
		"",
		"word",
		"Create a Kubernetes deployment with three replicas",
		"创建一个负载均衡器服务",
		"部署 nginx 服务，并暴露 port: 80",
		"クラスタにPodをデプロイする",
		"apiVersion: apps/v1\nkind: Deployment\nmetadata:\n  name: web\nspec:\n  replicas: 3",
		"!!!",
		"a_b-c.d/e:f{g}h",
		"   leading and   trailing   ",
		"mixed中文words和English混合",
		"supercalifragilisticexpialidocious",
		strings.Repeat("word ", 100),
		"-- flags --set key=value,other=值",
		// The ASCII fast path hands over mid-word, before a non-ASCII
		// space, and at a byte that is not UTF-8 at all.
		"abc中文 def",
		"naïve café",
		"a\u00a0b\u0085c\u3000d",
		"ab\xffcd ef\xc3",
		"\t\v\f\r\n \x00\x7f~",
	}
	for _, s := range cases {
		if got, want := EstimateTokens(s), tokenizeEstimate(s); got != want {
			t.Errorf("EstimateTokens(%q) = %d, tokenize-based = %d", s, got, want)
		}
	}
	cfg := &quick.Config{
		MaxCount: 500,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(strings.Join(randomLines(r), "\n"))
		},
	}
	prop := func(s string) bool {
		return EstimateTokens(s) == tokenizeEstimate(s)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestWords(t *testing.T) {
	if got := Words("create an svc with LB"); got != 5 {
		t.Errorf("Words = %d, want 5", got)
	}
}

func TestEstimateTokens(t *testing.T) {
	en := EstimateTokens("Create a Kubernetes deployment with three replicas")
	if en <= 0 {
		t.Fatal("expected positive token estimate")
	}
	zh := EstimateTokens("创建一个负载均衡器服务")
	if zh < 10 {
		t.Errorf("CJK estimate = %d, want >= rune count 11", zh)
	}
	long := EstimateTokens(strings.Repeat("word ", 100))
	short := EstimateTokens("word")
	if long < 90*short {
		t.Errorf("long text estimate %d should scale with length (unit %d)", long, short)
	}
}

func TestBLEUIdentity(t *testing.T) {
	text := "apiVersion: v1 kind: Service metadata: name: nginx-service spec: selector: app: nginx"
	if got := BLEU(text, text); got < 0.999 {
		t.Errorf("BLEU(x,x) = %v, want ~1", got)
	}
}

func TestBLEUDisjoint(t *testing.T) {
	got := BLEU("aa bb cc dd ee ff gg hh", "qq ww ee2 rr tt yy uu ii")
	if got != 0 {
		t.Errorf("unsmoothed BLEU of disjoint texts = %v, want 0", got)
	}
	smoothed := BLEUSmoothed("aa bb cc dd ee ff gg hh", "qq ww ee2 rr tt yy uu ii")
	if smoothed <= 0 || smoothed > 0.2 {
		t.Errorf("smoothed BLEU = %v, want small positive", smoothed)
	}
}

func TestBLEUOrdering(t *testing.T) {
	ref := "kind: Deployment metadata: name: web spec: replicas: 3 selector: matchLabels: app: web"
	close := "kind: Deployment metadata: name: web spec: replicas: 4 selector: matchLabels: app: web"
	far := "kind: Pod metadata: labels: context: lab name: mysql containers: image: mysql"
	bc, bf := BLEU(close, ref), BLEU(far, ref)
	if bc <= bf {
		t.Errorf("BLEU(close)=%v should exceed BLEU(far)=%v", bc, bf)
	}
	if bc <= 0.5 {
		t.Errorf("BLEU(one-token-off) = %v, want > 0.5", bc)
	}
}

func TestBLEUBrevityPenalty(t *testing.T) {
	ref := "a b c d e f g h i j"
	full := BLEU("a b c d e f g h i j", ref)
	half := BLEU("a b c d e", ref)
	if half >= full {
		t.Errorf("brevity penalty missing: half=%v full=%v", half, full)
	}
}

func TestBLEUEmpty(t *testing.T) {
	if BLEU("", "x") != 0 || BLEU("x", "") != 0 {
		t.Error("empty side should score 0")
	}
}

func TestExactMatch(t *testing.T) {
	if ExactMatch("a: 1\nb: 2\n", "a: 1\nb: 2") != 1 {
		t.Error("trailing newline should not break exact match")
	}
	if ExactMatch("a: 1  \nb: 2", "a: 1\nb: 2") != 1 {
		t.Error("trailing spaces should not break exact match")
	}
	if ExactMatch("a: 1\nb: 3", "a: 1\nb: 2") != 0 {
		t.Error("different content must not match")
	}
}

func TestEditDistanceScore(t *testing.T) {
	ref := "a: 1\nb: 2\nc: 3\nd: 4"
	if got := EditDistanceScore(ref, ref); got != 1 {
		t.Errorf("identical = %v, want 1", got)
	}
	oneOff := "a: 1\nb: 2\nc: 999\nd: 4"
	if got := EditDistanceScore(oneOff, ref); got != 0.75 {
		t.Errorf("one line changed over 4 = %v, want 0.75", got)
	}
	if got := EditDistanceScore("zzz\nyyy\nxxx\nwww\nvvv\nuuu\nttt\nsss", ref); got != 0 {
		t.Errorf("fully different longer text = %v, want clamped 0", got)
	}
	if got := EditDistanceScore("", ref); got != 0 {
		t.Errorf("empty candidate = %v, want 0", got)
	}
	if got := EditDistanceScore("", ""); got != 1 {
		t.Errorf("both empty = %v, want 1", got)
	}
}

func TestEditDistanceInsertion(t *testing.T) {
	ref := "a: 1\nb: 2"
	cand := "a: 1\nextra: 9\nb: 2"
	// One inserted line over two reference lines.
	if got := EditDistanceScore(cand, ref); got != 0.5 {
		t.Errorf("insert = %v, want 0.5", got)
	}
}

func TestSequenceMatcherOpcodes(t *testing.T) {
	a := []string{"one", "two", "three", "four"}
	b := []string{"zero", "one", "two", "four"}
	ops := NewSequenceMatcher(a, b).OpCodes()
	// Expect: insert zero, equal one..two, delete three, equal four.
	var tags []OpTag
	for _, op := range ops {
		tags = append(tags, op.Tag)
	}
	want := []OpTag{OpInsert, OpEqual, OpDelete, OpEqual}
	if !reflect.DeepEqual(tags, want) {
		t.Errorf("tags = %v, want %v (ops %v)", tags, want, ops)
	}
}

func TestSequenceMatcherEmpty(t *testing.T) {
	if ops := NewSequenceMatcher(nil, nil).OpCodes(); len(ops) != 0 {
		t.Errorf("empty vs empty ops = %v", ops)
	}
	ops := NewSequenceMatcher([]string{"a"}, nil).OpCodes()
	if len(ops) != 1 || ops[0].Tag != OpDelete {
		t.Errorf("a vs empty = %v", ops)
	}
}

func TestRatio(t *testing.T) {
	if r := Ratio([]string{"a", "b"}, []string{"a", "b"}); r != 1 {
		t.Errorf("identical ratio = %v", r)
	}
	if r := Ratio([]string{"a"}, []string{"b"}); r != 0 {
		t.Errorf("disjoint ratio = %v", r)
	}
}

func randomLines(r *rand.Rand) []string {
	n := r.Intn(12)
	lines := make([]string, n)
	vocab := []string{"a: 1", "b: 2", "kind: Pod", "  name: x", "spec:", "- item", "image: nginx"}
	for i := range lines {
		lines[i] = vocab[r.Intn(len(vocab))]
	}
	return lines
}

func TestPropertyEditDistanceBounds(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 500,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(randomLines(r))
			vals[1] = reflect.ValueOf(randomLines(r))
		},
	}
	prop := func(a, b []string) bool {
		d := LineEditDistance(a, b)
		if d < 0 || d > len(a)+len(b) {
			return false
		}
		// Symmetry of zero distance with equality.
		eq := reflect.DeepEqual(a, b)
		return (d == 0) == eq || (len(a) == 0 && len(b) == 0)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestPropertyBLEURange(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 300,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(strings.Join(randomLines(r), " "))
			vals[1] = reflect.ValueOf(strings.Join(randomLines(r), " "))
		},
	}
	prop := func(a, b string) bool {
		s := BLEU(a, b)
		return s >= 0 && s <= 1.0000001
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestPropertySelfScoresPerfect(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			lines := randomLines(r)
			for len(lines) < 4 {
				lines = append(lines, "pad: line")
			}
			vals[0] = reflect.ValueOf(strings.Join(lines, "\n"))
		},
	}
	prop := func(s string) bool {
		return ExactMatch(s, s) == 1 && EditDistanceScore(s, s) == 1
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
