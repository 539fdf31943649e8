// Package lagfib is math/rand's additive lagged-Fibonacci generator
// with a seed that costs what the stream draws, not 607 words.
//
// Go 1 compatibility freezes the stream rand.NewSource(seed) yields,
// and the simulated models' responses are a function of it, so the
// numbers may not change. What may change is when the state is
// computed. math/rand's Seed walks a Lehmer generator
// x ← 48271·x mod (2³¹−1) through 1,841 steps and builds slot i of the
// 607-word register from steps 21+3i, 22+3i and 23+3i:
//
//	vec[i] = x₍₂₁₊₃ᵢ₎≪40 ⊕ x₍₂₂₊₃ᵢ₎≪20 ⊕ x₍₂₃₊₃ᵢ₎ ⊕ cooked[i]
//
// A Lehmer generator jumps ahead by a multiplication: xₖ = 48271ᵏ·s
// mod (2³¹−1). So any slot follows from the seed alone in three
// modular multiplications, and Source fills a slot the first time the
// recurrence reads it. The recurrence's access order is fixed — draw k
// reads slots 334−k and 607−k (mod 607), writes the first — so "first
// time" needs no per-slot bookkeeping: during the first 607 draws the
// feed slot is always new, and the tap slot is new for the first 273.
// A stream of k draws pays at most 2k slot fills; after 607 draws the
// register is complete and the source is math/rand's, step for step.
package lagfib

import "math/rand"

const (
	regLen = 607 // words in the feedback register
	regTap = 273 // distance between the two taps
	lehmer = 48271
	m31    = 1<<31 - 1
)

var (
	// jump[i] = 48271^(21+3i) mod (2³¹−1): the Lehmer multiplier that
	// takes a seed to the first of slot i's three steps.
	jump [regLen]uint32
	// cooked is math/rand's additive table (rngCooked), recovered at
	// init from a seeded math/rand source rather than copied.
	cooked [regLen]uint64
)

func init() {
	p := uint64(1)
	for k := 0; k < 21; k++ {
		p = mulmod(p, lehmer)
	}
	for i := range jump {
		jump[i] = uint32(p)
		p = mulmod(mulmod(mulmod(p, lehmer), lehmer), lehmer)
	}
	// Draw k of a freshly seeded math/rand source returns, and stores,
	// old[334−k] + (old or new)[607−k]: 607 draws overwrite every slot
	// once, and as one sequence a[606+k] = draw k they obey
	// a[n+607] = a[n] + a[n+334], with a[0..606] the register Seed left
	// behind in the order the draws consume it. Run that backwards from
	// the 607 outputs, and what remains of each slot after removing the
	// seed-dependent part is the table.
	var a [2 * regLen]uint64
	src := rand.NewSource(1).(rand.Source64)
	for k := regLen; k < len(a); k++ {
		a[k] = src.Uint64()
	}
	for n := regLen - 1; n >= 0; n-- {
		a[n] = a[n+regLen] - a[n+regLen-regTap]
		slot := (2*regLen - regTap - 1 - n) % regLen
		cooked[slot] = a[n] ^ expand(1, slot)
	}
}

// mulmod is a·b mod (2³¹−1) for a, b < 2³¹. 2³¹ ≡ 1, so the high bits
// fold onto the low ones and no division is needed.
func mulmod(a, b uint64) uint64 {
	p := a * b
	p = p&m31 + p>>31
	p = p&m31 + p>>31
	if p >= m31 {
		p -= m31
	}
	return p
}

// expand is the seed-dependent part of slot i: three consecutive
// Lehmer steps laid out as math/rand's Seed lays them out.
func expand(seed uint64, i int) uint64 {
	x := mulmod(seed, uint64(jump[i]))
	u := x << 40
	x = mulmod(x, lehmer)
	u ^= x << 20
	x = mulmod(x, lehmer)
	return u ^ x
}

// Source is a rand.Source64 whose stream equals rand.NewSource's for
// every seed. The zero value is not seeded; call Seed first. Like
// math/rand's source it is not safe for concurrent use.
type Source struct {
	tap, feed int
	seed      uint64 // reduced into [1, 2³¹−2] as math/rand does
	filled    int    // draws so far, capped at regLen; see Uint64
	vec       [regLen]uint64
}

// New returns a source seeded with seed.
func New(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed resets the source to the state rand.NewSource(seed) starts in,
// in constant time: the register is left as it is and refilled from
// the seed as the stream reaches each slot.
func (s *Source) Seed(seed int64) {
	seed %= m31
	if seed < 0 {
		seed += m31
	}
	if seed == 0 {
		seed = 89482311
	}
	s.seed = uint64(seed)
	s.tap, s.feed, s.filled = 0, regLen-regTap, 0
}

// Uint64 returns the next 64 bits of the stream.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += regLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += regLen
	}
	if s.filled < regLen {
		// First lap since Seed: no draw has touched the feed slot yet,
		// nor the tap slot until draw 274, whose tap is draw 1's feed.
		s.vec[s.feed] = expand(s.seed, s.feed) ^ cooked[s.feed]
		if s.filled < regTap {
			s.vec[s.tap] = expand(s.seed, s.tap) ^ cooked[s.tap]
		}
		s.filled++
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x
}

// Int63 returns the next non-negative 63-bit integer of the stream.
func (s *Source) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }
