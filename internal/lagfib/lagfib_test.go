package lagfib

import (
	"math"
	"math/rand"
	"testing"
)

// edgeSeeds are the seeds where math/rand's reduction into [1, 2³¹−2]
// does something: zero and the multiples of 2³¹−1 that reduce to it
// (remapped to 89482311), negatives, and both ends of int64.
var edgeSeeds = []int64{
	0, 1, -1, 2, 42, 89482311,
	m31 - 1, m31, m31 + 1, -m31, 2 * m31, 1 << 31, 1<<31 + 1,
	math.MaxInt32, math.MinInt32,
	math.MaxInt64, math.MaxInt64 - 1, math.MinInt64, math.MinInt64 + 1,
}

// drawCounts straddle every point where the lazy fill changes what it
// does: the tap slot stops needing a fill after 273 draws, the feed
// index wraps after 334, the register is complete after 607, and a
// second lap ends at 1,214.
var drawCounts = []int{0, 1, 2, 19, 272, 273, 274, 333, 334, 335, 606, 607, 608, 700, 1213, 1214, 1215, 2000}

// matchOracle draws n values from both generators through the mix of
// front-end methods the sim uses (plus the raw 64-bit one) and fails
// on the first difference.
func matchOracle(t *testing.T, got, want *rand.Rand, n int, what string) {
	t.Helper()
	for i := 0; i < n; i++ {
		var a, b any
		switch i % 5 {
		case 0:
			a, b = got.Uint64(), want.Uint64()
		case 1:
			a, b = got.Int63(), want.Int63()
		case 2:
			a, b = got.Float64(), want.Float64()
		case 3:
			a, b = got.Intn(i+3), want.Intn(i+3)
		case 4:
			// The ziggurat redraws on rejection, which also shifts the
			// two streams against each other's phase over a long run.
			a, b = got.NormFloat64(), want.NormFloat64()
		}
		if a != b {
			t.Fatalf("%s, draw %d: lagfib %v, math/rand %v", what, i, a, b)
		}
	}
}

func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range edgeSeeds {
		for _, n := range drawCounts {
			matchOracle(t, rand.New(New(seed)), rand.New(rand.NewSource(seed)), n, "fresh")
		}
	}
	// A plain sweep of raw draws, so no front-end method stands between
	// the two registers.
	for seed := int64(-50); seed < 50; seed++ {
		got, want := New(seed), rand.NewSource(seed).(rand.Source64)
		for i := 0; i < 1300; i++ {
			if a, b := got.Uint64(), want.Uint64(); a != b {
				t.Fatalf("seed %d, draw %d: Uint64 %d, math/rand %d", seed, i, a, b)
			}
		}
	}
}

// TestZeroSeedRemap pins the one seed class math/rand rewrites: every
// multiple of 2³¹−1 gives the stream of 89482311.
func TestZeroSeedRemap(t *testing.T) {
	want := New(89482311)
	zero, neg, big := New(0), New(-m31), New(4*m31)
	for i := 0; i < 700; i++ {
		w := want.Uint64()
		if a, b, c := zero.Uint64(), neg.Uint64(), big.Uint64(); a != w || b != w || c != w {
			t.Fatalf("draw %d: seeds 0, −(2³¹−1), 4(2³¹−1) gave %d, %d, %d; 89482311 gives %d", i, a, b, c, w)
		}
	}
}

// TestReseedUsedSource is the hazard of seeding without clearing: one
// source is stopped after every count in drawCounts — mid first lap,
// exactly on the boundaries, deep into the second lap — and re-seeded,
// and nothing of the stream before may show in the stream after.
func TestReseedUsedSource(t *testing.T) {
	src := New(7)
	r := rand.New(src)
	seed := int64(1)
	for _, used := range drawCounts {
		for _, n := range drawCounts {
			seed = seed*6364136223846793005 + 1442695040888963407
			r.Seed(seed)
			matchOracle(t, r, rand.New(rand.NewSource(seed)), n, "re-seeded")
			// Leave the register in the state `used` draws make of it.
			seed++
			src.Seed(seed)
			for i := 0; i < used; i++ {
				src.Uint64()
			}
		}
	}
	// Re-seeding with the same seed replays the stream.
	src.Seed(99)
	first := [5]uint64{src.Uint64(), src.Uint64(), src.Uint64(), src.Uint64(), src.Uint64()}
	src.Seed(99)
	if again := [5]uint64{src.Uint64(), src.Uint64(), src.Uint64(), src.Uint64(), src.Uint64()}; again != first {
		t.Errorf("same seed twice: %v then %v", first, again)
	}
}

// TestCookedTableRecovered checks the init-time recovery on its own:
// with the table right, a fully expanded register equals what
// math/rand's Seed builds, which shows in the first 607 outputs of
// any seed other than the one the table was recovered from.
func TestCookedTableRecovered(t *testing.T) {
	var zero int
	for _, c := range cooked {
		if c == 0 {
			zero++
		}
	}
	if zero > 0 {
		t.Fatalf("%d of %d table words are zero", zero, regLen)
	}
	got, want := New(2), rand.NewSource(2).(rand.Source64)
	for i := 0; i < regLen; i++ {
		if a, b := got.Uint64(), want.Uint64(); a != b {
			t.Fatalf("draw %d: %d, math/rand %d", i, a, b)
		}
	}
}

func TestMulmod(t *testing.T) {
	vals := []uint64{0, 1, 2, lehmer, 1 << 16, 1<<30 + 12345, m31 - 1, m31}
	for _, a := range vals {
		for _, b := range vals {
			if got, want := mulmod(a, b), a*b%m31; got != want {
				t.Errorf("mulmod(%d, %d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

// FuzzSourceMatchesMathRand lets the fuzzer pick the seed and how far
// to run; the source is re-seeded once on the way so used state is
// always part of it.
func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range edgeSeeds {
		f.Add(seed, uint16(700))
	}
	f.Add(int64(12345), uint16(1300))
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		n := int(draws) % 2500
		src := New(^seed)
		for i := 0; i < n/3; i++ {
			src.Uint64()
		}
		r := rand.New(src)
		r.Seed(seed)
		matchOracle(t, r, rand.New(rand.NewSource(seed)), n, "fuzz")
	})
}
