package textmetrics

import (
	"math"
	"math/bits"
	"sync"
	"unicode"
	"unicode/utf8"
)

// BLEURef is the reference side of a BLEU comparison compiled once:
// the reference's token vocabulary and its 1..4-gram counts, held in
// two open-addressed tables so that Score never touches a Go map. The
// benchmark scores twelve models against the same reference, so
// everything that depends on the reference alone is paid here, and
// Score only streams the candidate over it. A BLEURef is immutable
// after construction and safe for concurrent use.
//
// Every distinct reference n-gram owns one slot of refCount. Unigrams
// come first, in order of first appearance, so a token's id is the
// slot of its unigram and slot 0 is always a unigram. A longer n-gram
// is reached from its (n-1)-token prefix: ext maps the integer
// prefixSlot<<32 | tokenID to the n-gram's slot. Slots and ids are
// non-negative int32s, so that key is exact — two different n-grams
// never share one, whatever the vocabulary size — and because a slot
// belongs to one n-gram of one order, the four orders share the table.
type BLEURef struct {
	refLen   int
	vocab    []vocabCell // open addressing, linear probing; len is a power of two
	ext      []extCell   // likewise
	extShift uint8       // 64 - log2(len(ext)): the key's hash keeps its top bits
	refCount []int32
}

// vocabCell is one cell of the vocabulary table. No token is empty, so
// tok == "" marks an empty cell.
type vocabCell struct {
	tok string
	id  int32
}

// extCell is one cell of the extension table. Slot 0 is a unigram and
// no extension leads to one, so slot == 0 marks an empty cell.
type extCell struct {
	key  uint64
	slot int32
}

// tableSize returns the power of two that holds n entries at load
// ≤ 0.5. It is never below 2, so an empty table still answers probes.
func tableSize(n int) int {
	size := 2
	for size < 2*n {
		size <<= 1
	}
	return size
}

// tokenHash is 32-bit FNV-1a, small enough to inline into the probe.
func tokenHash(tok string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(tok); i++ {
		h = (h ^ uint32(tok[i])) * 16777619
	}
	return h
}

// tokenID returns the id of a reference token, or -1 for a token the
// reference never uses.
func (r *BLEURef) tokenID(tok string) int32 {
	mask := uint32(len(r.vocab) - 1)
	for i := tokenHash(tok) & mask; ; i = (i + 1) & mask {
		c := &r.vocab[i]
		if c.tok == tok {
			return c.id
		}
		if c.tok == "" {
			return -1
		}
	}
}

func extKey(prefixSlot, id int32) uint64 { return uint64(prefixSlot)<<32 | uint64(id) }

// extHome is the cell a key probes first: Fibonacci hashing, the top
// bits of the key times 2^64/φ.
func extHome(key uint64, shift uint8) int { return int(key * 0x9E3779B97F4A7C15 >> shift) }

// extend returns the slot of the reference n-gram made of the n-gram
// at prefixSlot followed by token id, or 0 when the reference holds no
// such n-gram.
func (r *BLEURef) extend(prefixSlot, id int32) int32 {
	key := extKey(prefixSlot, id)
	mask := len(r.ext) - 1
	for i := extHome(key, r.extShift); ; i = (i + 1) & mask {
		c := &r.ext[i]
		if c.slot == 0 || c.key == key {
			return c.slot
		}
	}
}

// NewBLEURef precomputes reference n-gram statistics. Go maps find the
// distinct tokens and n-grams here, once; both tables are then sized
// from those counts and filled in slot order, so a reference always
// compiles to the same layout.
func NewBLEURef(reference string) *BLEURef {
	toks := Tokenize(reference)
	r := &BLEURef{refLen: len(toks)}
	ids := make([]int32, len(toks))
	distinct := make(map[string]int32)
	for i, t := range toks {
		id, ok := distinct[t]
		if !ok {
			id = int32(len(distinct))
			distinct[t] = id
		}
		ids[i] = id
	}
	r.refCount = make([]int32, len(distinct))
	r.vocab = make([]vocabCell, tableSize(len(distinct)))
	mask := uint32(len(r.vocab) - 1)
	for i, t := range toks {
		if r.refCount[ids[i]]++; r.refCount[ids[i]] > 1 {
			continue // seen before: already in the table
		}
		h := tokenHash(t) & mask
		for r.vocab[h].tok != "" {
			h = (h + 1) & mask
		}
		r.vocab[h] = vocabCell{t, ids[i]}
	}

	// slots[i] is the slot of the n-gram of the current order that
	// starts at token i; extending it by the token n-1 further on gives
	// the next order's.
	slots := append([]int32(nil), ids...)
	grams := make(map[uint64]int32)
	var keys []uint64 // keys[slot-len(distinct)], in slot order
	for n := 2; n <= bleuMaxN; n++ {
		for i := 0; i+n <= len(ids); i++ {
			key := extKey(slots[i], ids[i+n-1])
			slot, ok := grams[key]
			if !ok {
				slot = int32(len(r.refCount))
				grams[key] = slot
				keys = append(keys, key)
				r.refCount = append(r.refCount, 0)
			}
			r.refCount[slot]++
			slots[i] = slot
		}
	}
	r.ext = make([]extCell, tableSize(len(keys)))
	r.extShift = uint8(64 - bits.TrailingZeros(uint(len(r.ext))))
	for k, key := range keys {
		h := extHome(key, r.extShift)
		for r.ext[h].slot != 0 {
			h = (h + 1) & (len(r.ext) - 1)
		}
		r.ext[h] = extCell{key, int32(len(distinct) + k)}
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
		ids = append(ids, r.tokenID(tok))
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
	for i, id := range ids {
		if id < 0 {
			continue // nothing starting here is in the reference
		}
		// Walk from the unigram outwards, one integer probe per token;
		// an unknown token or a missing n-gram ends it, as no longer
		// n-gram starting here can match either.
		slot := id
		for n := 0; ; {
			seen[slot]++
			if seen[slot] <= r.refCount[slot] {
				match[n]++
			}
			if n++; n == bleuMaxN || i+n == len(ids) || ids[i+n] < 0 {
				break
			}
			if slot = r.extend(slot, ids[i+n]); slot == 0 {
				break
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
