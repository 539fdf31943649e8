package textmetrics

import (
	"fmt"
	"strings"
	"unsafe"
)

// For corpus_test.go, which lives in the external test package because
// the corpus packages import this one.
var (
	EstimateTokensRunes = estimateTokensRunes
	TokenizeEstimate    = tokenizeEstimate
)

// TableReport is what CheckTables measured on one compiled reference.
type TableReport struct {
	VocabLoad, ExtLoad float64 // entries / cells
	MaxProbes          int     // longest probe sequence of any reference n-gram
	Bytes              int     // cells and counters retained, token text aside
}

// CheckTables looks up every n-gram of reference (n = 1..4) in r the way
// Score does — unigram by token, each longer one from its prefix — with
// probe loops that give up after one lap of the table, and compares the
// count at the slot reached with the oracle's ngramCounts.
func (r *BLEURef) CheckTables(reference string) (TableReport, error) {
	toks := Tokenize(reference)
	rep := TableReport{Bytes: len(r.vocab)*int(unsafe.Sizeof(vocabCell{})) +
		len(r.ext)*int(unsafe.Sizeof(extCell{})) + len(r.refCount)*4}
	if r.refLen != len(toks) {
		return rep, fmt.Errorf("refLen %d, reference has %d tokens", r.refLen, len(toks))
	}
	var want [bleuMaxN]map[string]int
	distinct := 0
	for n := range want {
		want[n] = ngramCounts(toks, n+1)
		distinct += len(want[n])
	}
	if len(r.refCount) != distinct {
		return rep, fmt.Errorf("%d slots for %d distinct n-grams", len(r.refCount), distinct)
	}
	rep.VocabLoad = float64(len(want[0])) / float64(len(r.vocab))
	rep.ExtLoad = float64(distinct-len(want[0])) / float64(len(r.ext))

	owner := make(map[int32]string) // slot → the n-gram found there
	for i := range toks {
		slot := int32(-1)
		for n := 1; n <= bleuMaxN && i+n <= len(toks); n++ {
			g := strings.Join(toks[i:i+n], "\x00")
			var probes int
			prefix, id := slot, int32(-1)
			if n == 1 {
				slot, probes = r.boundedTokenID(toks[i])
			} else {
				id, _ = r.boundedTokenID(toks[i+n-1])
				slot, probes = r.boundedExtend(prefix, id)
			}
			if probes > rep.MaxProbes {
				rep.MaxProbes = probes
			}
			if slot < 0 || (n > 1 && slot == 0) {
				return rep, fmt.Errorf("%d-gram %q at token %d not found after %d probes", n, g, i, probes)
			}
			if prev, ok := owner[slot]; ok && prev != g {
				return rep, fmt.Errorf("slot %d holds both %q and %q", slot, prev, g)
			}
			owner[slot] = g
			if got := int(r.refCount[slot]); got != want[n-1][g] {
				return rep, fmt.Errorf("%d-gram %q: count %d at slot %d, want %d", n, g, got, slot, want[n-1][g])
			}
			// Only now is it safe to run the unbounded production probes.
			if n == 1 && r.tokenID(toks[i]) != slot {
				return rep, fmt.Errorf("tokenID(%q) = %d, bounded probe found %d", toks[i], r.tokenID(toks[i]), slot)
			}
			if n > 1 && r.extend(prefix, id) != slot {
				return rep, fmt.Errorf("extend to %q = %d, bounded probe found %d", g, r.extend(prefix, id), slot)
			}
		}
	}
	return rep, nil
}

// boundedTokenID is tokenID giving up (id -1) after one lap.
func (r *BLEURef) boundedTokenID(tok string) (id int32, probes int) {
	mask := uint32(len(r.vocab) - 1)
	for i := tokenHash(tok) & mask; probes < len(r.vocab); i = (i + 1) & mask {
		probes++
		if c := r.vocab[i]; c.tok == tok {
			return c.id, probes
		} else if c.tok == "" {
			break
		}
	}
	return -1, probes
}

// boundedExtend is extend giving up (slot 0) after one lap.
func (r *BLEURef) boundedExtend(prefixSlot, id int32) (slot int32, probes int) {
	key := extKey(prefixSlot, id)
	for i := extHome(key, r.extShift); probes < len(r.ext); i = (i + 1) & (len(r.ext) - 1) {
		probes++
		if c := r.ext[i]; c.slot == 0 || c.key == key {
			return c.slot, probes
		}
	}
	return 0, probes
}
