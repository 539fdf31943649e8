package textmetrics

import (
	"strings"
	"sync"
)

// LineRef is the reference side of the two line-level scores compiled
// once: the reference's normalised text for ExactMatch, and for
// EditDistanceScore its non-empty lines as ids with difflib's b2j
// index (for each distinct line, where it occurs), which
// NewSequenceMatcher rebuilds for every candidate. A LineRef is
// immutable after construction and safe for concurrent use.
type LineRef struct {
	norm   string           // normalize(reference)
	n      int              // len(nonEmptyLines(reference))
	lineID map[string]int32 // distinct non-empty line → id
	b2j    [][]int32        // id → ascending positions among the non-empty lines
}

// NewLineRef precomputes the reference side of EditDistanceScore and
// ExactMatch.
func NewLineRef(reference string) *LineRef {
	lines := nonEmptyLines(reference)
	r := &LineRef{norm: normalize(reference), n: len(lines), lineID: make(map[string]int32)}
	for j, ln := range lines {
		id, ok := r.lineID[ln]
		if !ok {
			id = int32(len(r.b2j))
			r.lineID[ln] = id
			r.b2j = append(r.b2j, nil)
		}
		r.b2j[id] = append(r.b2j[id], int32(j))
	}
	return r
}

// nextLine returns the line of s that starts at byte i, with trailing
// blanks removed the way normalize and nonEmptyLines remove them, and
// the offset of the line after it. A line ends at "\n" or "\r\n"; past
// the last one, next is len(s)+1.
func nextLine(s string, i int) (line string, next int) {
	end := strings.IndexByte(s[i:], '\n')
	if end < 0 {
		return strings.TrimRight(s[i:], " \t"), len(s) + 1
	}
	line = s[i : i+end]
	if strings.HasSuffix(line, "\r") {
		line = line[:len(line)-1]
	}
	return strings.TrimRight(line, " \t"), i + end + 1
}

// ExactMatch is ExactMatch(candidate, reference): 1 when the texts are
// equal once line endings, trailing blanks and the empty lines before
// the first and after the last non-empty one are set aside.
func (r *LineRef) ExactMatch(candidate string) float64 {
	rest := r.norm // what of the reference the candidate has yet to match
	started, empty := false, 0
	for i := 0; i <= len(candidate); {
		var line string
		line, i = nextLine(candidate, i)
		if line == "" {
			empty++ // counts only if a non-empty line follows
			continue
		}
		if started {
			sep := empty + 1
			if len(rest) < sep || strings.Count(rest[:sep], "\n") != sep {
				return 0
			}
			rest = rest[sep:]
		}
		started, empty = true, 0
		if !strings.HasPrefix(rest, line) {
			return 0
		}
		rest = rest[len(line):]
		if rest != "" && rest[0] != '\n' {
			return 0 // line is only the start of the reference's line
		}
	}
	if rest != "" {
		return 0
	}
	return 1
}

// lineScratch is what one EditDistanceScore call needs besides the
// reference: the candidate's lines as reference line ids, and the two
// rows of findLongestMatch's table, indexed by reference position + 1
// and all zero between calls.
type lineScratch struct {
	a         []int32
	prev, cur []int32
}

var linePool = sync.Pool{New: func() any { return new(lineScratch) }}

// EditDistanceScore is EditDistanceScore(candidate, reference), bit
// for bit.
func (r *LineRef) EditDistanceScore(candidate string) float64 {
	sc := linePool.Get().(*lineScratch)
	defer linePool.Put(sc)

	// A line the reference does not have gets id -1 and matches nothing.
	a := sc.a[:0]
	for i := 0; i <= len(candidate); {
		var line string
		line, i = nextLine(candidate, i)
		if strings.TrimSpace(line) == "" {
			continue
		}
		id, ok := r.lineID[line]
		if !ok {
			id = -1
		}
		a = append(a, id)
	}
	sc.a = a
	if r.n == 0 {
		if len(a) == 0 {
			return 1
		}
		return 0
	}

	if cap(sc.prev) < r.n+1 {
		sc.prev, sc.cur = make([]int32, r.n+1), make([]int32, r.n+1)
	}
	m := lineMatcher{ref: r, a: a, prev: sc.prev[:r.n+1], cur: sc.cur[:r.n+1]}
	m.walk(0, len(a), 0, r.n)
	dist := m.dist + max(len(a)-m.ai, r.n-m.bj)
	score := 1 - float64(dist)/float64(r.n)
	if score < 0 {
		return 0
	}
	return score
}

// lineMatcher is SequenceMatcher with a = the candidate's line ids and
// b = the reference, reduced to what LineEditDistance takes from the
// opcodes: every stretch between two consecutive matching blocks costs
// the longer of its two sides (a replace, a delete or an insert). walk
// visits the blocks in ascending order, so the stretches add up on the
// way and no block is stored.
type lineMatcher struct {
	ref       *LineRef
	a         []int32
	prev, cur []int32
	ai, bj    int // end of the last block visited
	dist      int
}

// walk visits the matching blocks within a[alo:ahi] and b[blo:bhi] the
// way matchingBlocks finds them — the longest block, then the same on
// both sides of it — but left side first instead of off a stack.
func (m *lineMatcher) walk(alo, ahi, blo, bhi int) {
	i, j, k := m.findLongestMatch(alo, ahi, blo, bhi)
	if k == 0 {
		return
	}
	if alo < i && blo < j {
		m.walk(alo, i, blo, j)
	}
	m.dist += max(i-m.ai, j-m.bj)
	m.ai, m.bj = i+k, j+k
	if i+k < ahi && j+k < bhi {
		m.walk(i+k, ahi, j+k, bhi)
	}
}

// findLongestMatch is SequenceMatcher.findLongestMatch on two dense
// rows: prev[j+1] is the length of the longest match ending at a[i-1]
// and b[j], cur the same for a[i]. Only the cells a row set are zeroed
// again, so a call costs what the b2j lists it reads hold, as with the
// maps it replaces. Ties resolve alike: the first i, then the lowest j.
func (m *lineMatcher) findLongestMatch(alo, ahi, blo, bhi int) (besti, bestj, bestk int) {
	besti, bestj = alo, blo
	prev, cur := m.prev, m.cur
	for i := alo; i < ahi; i++ {
		for _, j32 := range m.positions(i) {
			j := int(j32)
			if j < blo {
				continue
			}
			if j >= bhi {
				break
			}
			k := int(prev[j]) + 1
			cur[j+1] = int32(k)
			if k > bestk {
				besti, bestj, bestk = i-k+1, j-k+1, k
			}
		}
		if i > alo {
			m.zero(prev, i-1, blo, bhi)
		}
		prev, cur = cur, prev
	}
	if ahi > alo {
		m.zero(prev, ahi-1, blo, bhi)
	}
	return besti, bestj, bestk
}

// positions lists where a[i] occurs in the reference, ascending.
func (m *lineMatcher) positions(i int) []int32 {
	if id := m.a[i]; id >= 0 {
		return m.ref.b2j[id]
	}
	return nil
}

// zero clears the cells that a[i]'s turn set in row.
func (m *lineMatcher) zero(row []int32, i, blo, bhi int) {
	for _, j := range m.positions(i) {
		if int(j) >= blo && int(j) < bhi {
			row[j+1] = 0
		}
	}
}
