// Package textmetrics implements the text-level scores of the
// CloudEval-YAML benchmark (§3.2 of the paper): BLEU, line-based edit
// distance in the style of Python's difflib, and exact match. It also
// provides the tokenizers used for dataset statistics.
//
// All metrics return values in [0, 1]; higher is better.
package textmetrics

import (
	"math"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Tokenize splits text into word tokens: runs of letters/digits and
// individual punctuation characters. It mirrors the whitespace+punct
// tokenization commonly fed into NLTK's BLEU.
func Tokenize(s string) []string {
	var toks []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			toks = append(toks, cur.String())
			cur.Reset()
		}
	}
	for _, r := range s {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-' || r == '.':
			cur.WriteRune(r)
		case unicode.IsSpace(r):
			flush()
		default:
			flush()
			toks = append(toks, string(r))
		}
	}
	flush()
	return toks
}

// Words counts whitespace-separated words, the unit of the paper's
// "Avg. words" statistics (Tables 1 and 2).
func Words(s string) int { return len(strings.Fields(s)) }

// EstimateTokens approximates an LLM tokenizer's token count. English
// words average roughly 1.3 tokens and CJK characters roughly 1 token
// each; punctuation tokenizes alone. The paper used a proprietary
// tokenizer; this deterministic estimator preserves relative sizes,
// which is all Tables 1–2 consume.
// EstimateTokens runs on every generation (usage metering estimates
// both the prompt and the completion), so it streams over the text in
// a single allocation-free pass instead of materializing the token
// slice the way Tokenize does. Prompts, references and answers are
// ASCII but for translated questions, so bytes are classified from
// nextToken's table until the first one that is not; the word it
// stands in and the rest of the text go through the rune loop.
// TestEstimateTokensMatchesTokenize pins both to the tokenizer-based
// definition.
func EstimateTokens(s string) int {
	n, run := 0, 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= utf8.RuneSelf {
			return n + estimateTokensRunes(s[i-run:])
		}
		switch asciiClass[c] {
		case tokWord:
			run++
		case tokSpace:
			n += subwordTokens(run)
			run = 0
		default:
			n += subwordTokens(run) + 1 // punctuation tokenizes alone
			run = 0
		}
	}
	return n + subwordTokens(run)
}

// estimateTokensRunes is EstimateTokens for text of any script.
func estimateTokensRunes(s string) int {
	n, runes := 0, 0
	var first rune
	for _, r := range s {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-' || r == '.':
			if runes == 0 {
				first = r
			}
			runes++
		case unicode.IsSpace(r):
			n += wordTokens(first, runes)
			runes = 0
		default:
			n += wordTokens(first, runes)
			runes = 0
			n += wordTokens(r, 1) // punctuation tokenizes alone
		}
	}
	return n + wordTokens(first, runes)
}

// wordTokens estimates one word token's cost: CJK-leading tokens count
// one per character, others split into subword pieces.
func wordTokens(first rune, runes int) int {
	if runes > 0 && isCJK(first) {
		return runes
	}
	return subwordTokens(runes)
}

// subwordTokens is the cost of a word of any other script: pieces of
// about 4 characters, long words usually once more.
func subwordTokens(runes int) int {
	n := (runes + 3) / 4
	if runes > 4 {
		n++
	}
	return n
}

func isCJK(r rune) bool {
	return unicode.Is(unicode.Han, r) || unicode.Is(unicode.Hiragana, r) || unicode.Is(unicode.Katakana, r)
}

// BLEU computes the sentence BLEU score of candidate against reference
// with uniform weights over 1..4-grams and the standard brevity penalty.
// Like NLTK's default sentence_bleu, it is unsmoothed: any n-gram order
// with zero matches collapses the score to zero.
func BLEU(candidate, reference string) float64 {
	return bleuTokens(Tokenize(candidate), Tokenize(reference), false)
}

// BLEUSmoothed is BLEU with NLTK smoothing method 1 (epsilon counts for
// zero-match orders), useful as a denser feature for score prediction.
func BLEUSmoothed(candidate, reference string) float64 {
	return bleuTokens(Tokenize(candidate), Tokenize(reference), true)
}

// BLEUTokens is unsmoothed BLEU over pre-tokenized inputs.
func BLEUTokens(cand, ref []string) float64 { return bleuTokens(cand, ref, false) }

const bleuMaxN = 4

func bleuTokens(cand, ref []string, smooth bool) float64 {
	if len(cand) == 0 || len(ref) == 0 {
		return 0
	}
	logSum := 0.0
	for n := 1; n <= bleuMaxN; n++ {
		match, total := modifiedPrecision(cand, ref, n)
		if match == 0 || total == 0 {
			if !smooth {
				return 0
			}
			if total == 0 {
				total = 1
			}
			logSum += math.Log(1.0 / (2 * float64(total)))
			continue
		}
		logSum += math.Log(float64(match) / float64(total))
	}
	bp := 1.0
	if len(cand) < len(ref) {
		bp = math.Exp(1 - float64(len(ref))/float64(len(cand)))
	}
	return bp * math.Exp(logSum/bleuMaxN)
}

// modifiedPrecision counts candidate n-grams clipped by reference counts.
func modifiedPrecision(cand, ref []string, n int) (match, total int) {
	if len(cand) < n {
		return 0, 0
	}
	refCounts := ngramCounts(ref, n)
	for g, c := range ngramCounts(cand, n) {
		total += c
		if rc, ok := refCounts[g]; ok {
			if c < rc {
				match += c
			} else {
				match += rc
			}
		}
	}
	return match, total
}

func ngramCounts(toks []string, n int) map[string]int {
	m := make(map[string]int)
	for i := 0; i+n <= len(toks); i++ {
		m[strings.Join(toks[i:i+n], "\x00")]++
	}
	return m
}

// ExactMatch reports 1 when the candidate text equals the reference
// after normalizing line endings and trailing whitespace, else 0.
func ExactMatch(candidate, reference string) float64 {
	if normalize(candidate) == normalize(reference) {
		return 1
	}
	return 0
}

func normalize(s string) string {
	lines := strings.Split(strings.ReplaceAll(s, "\r\n", "\n"), "\n")
	for i := range lines {
		lines[i] = strings.TrimRight(lines[i], " \t")
	}
	joined := strings.Join(lines, "\n")
	return strings.Trim(joined, "\n")
}

// EditDistanceScore computes the paper's scaled line edit distance:
// 1 - edit_distance/len(reference_YAML), clamped to [0, 1], where
// edit_distance counts the lines a difflib.Differ-style comparison marks
// as removed or added.
func EditDistanceScore(candidate, reference string) float64 {
	candLines := nonEmptyLines(candidate)
	refLines := nonEmptyLines(reference)
	if len(refLines) == 0 {
		if len(candLines) == 0 {
			return 1
		}
		return 0
	}
	dist := LineEditDistance(candLines, refLines)
	score := 1 - float64(dist)/float64(len(refLines))
	if score < 0 {
		return 0
	}
	return score
}

func nonEmptyLines(s string) []string {
	var out []string
	for _, ln := range strings.Split(strings.ReplaceAll(s, "\r\n", "\n"), "\n") {
		t := strings.TrimRight(ln, " \t")
		if strings.TrimSpace(t) != "" {
			out = append(out, t)
		}
	}
	return out
}

// LineEditDistance counts the replace/delete/insert line operations
// turning a into b, using the SequenceMatcher opcodes (a deletion plus
// an insertion at the same spot counts as the larger of the two, the
// difflib convention for replacements).
func LineEditDistance(a, b []string) int {
	dist := 0
	for _, op := range NewSequenceMatcher(a, b).OpCodes() {
		switch op.Tag {
		case OpReplace:
			da := op.AEnd - op.AStart
			db := op.BEnd - op.BStart
			if da > db {
				dist += da
			} else {
				dist += db
			}
		case OpDelete:
			dist += op.AEnd - op.AStart
		case OpInsert:
			dist += op.BEnd - op.BStart
		}
	}
	return dist
}

// Ratio returns the difflib similarity ratio 2*M/T over lines.
func Ratio(a, b []string) float64 {
	matches := 0
	for _, op := range NewSequenceMatcher(a, b).OpCodes() {
		if op.Tag == OpEqual {
			matches += op.AEnd - op.AStart
		}
	}
	total := len(a) + len(b)
	if total == 0 {
		return 1
	}
	return 2 * float64(matches) / float64(total)
}
