package textmetrics

import (
	"math"
	"sync"
	"unicode"
	"unicode/utf8"
)

// gram is an n-gram of reference token ids, n ≤ bleuMaxN; positions
// past n stay zero. Each order has its own table, so a bigram and a
// four-gram with the same leading ids never meet. An array key puts no
// limit on the vocabulary.
type gram [bleuMaxN]int32

// BLEURef is the reference side of a BLEU comparison compiled once:
// the reference's token vocabulary and its 1..4-gram counts keyed by
// token ids. The benchmark scores twelve models against the same
// reference, so everything that depends on the reference alone is
// paid here, and Score only streams the candidate over it. A BLEURef
// is immutable after construction and safe for concurrent use.
type BLEURef struct {
	refLen int
	vocab  map[string]int32 // reference token → id
	// grams[n-1] maps a reference n-gram to its slot in refCount (and
	// in the per-call counter of the same length).
	grams    [bleuMaxN]map[gram]int32
	refCount []int32
}

// NewBLEURef precomputes reference n-gram statistics.
func NewBLEURef(reference string) *BLEURef {
	toks := Tokenize(reference)
	r := &BLEURef{refLen: len(toks), vocab: make(map[string]int32)}
	ids := make([]int32, len(toks))
	for i, t := range toks {
		id, ok := r.vocab[t]
		if !ok {
			id = int32(len(r.vocab))
			r.vocab[t] = id
		}
		ids[i] = id
	}
	for n := 1; n <= bleuMaxN; n++ {
		table := make(map[gram]int32)
		for i := 0; i+n <= len(ids); i++ {
			var g gram
			copy(g[:], ids[i:i+n])
			slot, ok := table[g]
			if !ok {
				slot = int32(len(r.refCount))
				table[g] = slot
				r.refCount = append(r.refCount, 0)
			}
			r.refCount[slot]++
		}
		r.grams[n-1] = table
	}
	return r
}

// bleuScratch is what one Score call needs besides the reference: the
// candidate's token ids and one counter per reference n-gram.
type bleuScratch struct {
	ids  []int32
	seen []int32
}

var bleuPool = sync.Pool{New: func() any { return new(bleuScratch) }}

// Score computes unsmoothed BLEU of candidate against the precomputed
// reference; identical to BLEU(candidate, reference), bit for bit.
func (r *BLEURef) Score(candidate string) float64 {
	sc := bleuPool.Get().(*bleuScratch)
	defer bleuPool.Put(sc)

	// Tokens the reference never uses get id -1: no n-gram holding one
	// can match, but each still counts towards the totals.
	ids := sc.ids[:0]
	for i := 0; ; {
		tok, next, ok := nextToken(candidate, i)
		if !ok {
			break
		}
		id, known := r.vocab[tok]
		if !known {
			id = -1
		}
		ids = append(ids, id)
		i = next
	}
	sc.ids = ids
	if len(ids) == 0 || r.refLen == 0 {
		return 0
	}

	if cap(sc.seen) < len(r.refCount) {
		sc.seen = make([]int32, len(r.refCount))
	}
	seen := sc.seen[:len(r.refCount)]
	clear(seen)
	// match[n-1] is the clipped count: an occurrence matches while the
	// candidate has used its n-gram no more often than the reference
	// holds it, which sums to min(candidate count, reference count).
	var match [bleuMaxN]int
	for i := range ids {
		var g gram
		for n := 0; n < bleuMaxN && i+n < len(ids); n++ {
			g[n] = ids[i+n]
			slot, ok := r.grams[n][g]
			if !ok {
				break // nor is any longer n-gram starting here
			}
			seen[slot]++
			if seen[slot] <= r.refCount[slot] {
				match[n]++
			}
		}
	}

	logSum := 0.0
	for n := 1; n <= bleuMaxN; n++ {
		total := len(ids) - n + 1
		if match[n-1] == 0 || total <= 0 {
			return 0
		}
		logSum += math.Log(float64(match[n-1]) / float64(total))
	}
	bp := 1.0
	if len(ids) < r.refLen {
		bp = math.Exp(1 - float64(r.refLen)/float64(len(ids)))
	}
	return bp * math.Exp(logSum/bleuMaxN)
}

// Token classes of nextToken.
const (
	tokPunct uint8 = iota // a token of its own
	tokWord               // part of a run
	tokSpace              // separates tokens
)

// asciiClass is runeClass for the bytes below utf8.RuneSelf, which is
// nearly all of a YAML file.
var asciiClass = func() (t [utf8.RuneSelf]uint8) {
	for c := range t {
		t[c] = runeClass(rune(c))
	}
	return t
}()

func runeClass(r rune) uint8 {
	switch {
	case unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-' || r == '.':
		return tokWord
	case unicode.IsSpace(r):
		return tokSpace
	}
	return tokPunct
}

// nextToken returns the token of s that starts at or after byte i and
// the offset just past it, or ok=false when only space is left. It
// yields the tokens of Tokenize(s) one by one as substrings of s. The
// one token that is not a substring is an invalid UTF-8 byte, which
// Tokenize reads as U+FFFD: it comes back as that rune's encoding.
func nextToken(s string, i int) (tok string, next int, ok bool) {
	for i < len(s) {
		class, width := tokPunct, 1
		if c := s[i]; c < utf8.RuneSelf {
			class = asciiClass[c]
		} else {
			var r rune
			r, width = utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && width == 1 {
				return string(utf8.RuneError), i + 1, true
			}
			class = runeClass(r)
		}
		switch class {
		case tokSpace:
			i += width
		case tokPunct:
			return s[i : i+width], i + width, true
		default:
			end := wordEnd(s, i+width)
			return s[i:end], end, true
		}
	}
	return "", len(s), false
}

// wordEnd returns the end of the run of word runes that reaches i.
func wordEnd(s string, i int) int {
	for i < len(s) {
		if s[i] < utf8.RuneSelf {
			if asciiClass[s[i]] != tokWord {
				return i
			}
			i++
			continue
		}
		r, width := utf8.DecodeRuneInString(s[i:])
		if runeClass(r) != tokWord {
			return i
		}
		i += width
	}
	return i
}
