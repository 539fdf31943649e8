package memo

import (
	"errors"
	"slices"
	"testing"
)

// lruModel is what a one-shard LRU must do, kept the plain way: the
// committed entries in a slice, most recently used first, found by a
// linear scan for their fingerprint.
type lruModel struct {
	budget                  int64
	entries                 []modelEntry
	bytes                   int64
	hits, misses, evictions int64
}

type modelEntry struct {
	key, v int
	cost   int64
}

var errFuzz = errors.New("fuzz: fn failed")

// collideHash puts every key in shard 0 and gives key k the fingerprint
// of k-12 from 12 on, so keys 12 to 15 collide with 0 to 3.
func collideHash(k int) uint64 { return uint64(k%12) << 16 }

// do is Do on the model: fn would return v at cost, or fail.
func (m *lruModel) do(key, v int, cost int64, fail bool) (int, error, bool) {
	i := slices.IndexFunc(m.entries, func(e modelEntry) bool { return collideHash(e.key) == collideHash(key) })
	switch {
	case i >= 0 && m.entries[i].key == key:
		m.hits++
		e := m.entries[i]
		m.entries = slices.Insert(slices.Delete(m.entries, i, i+1), 0, e)
		return e.v, nil, true
	case fail:
		m.misses++
		return v, errFuzz, false
	case i >= 0: // another key holds the fingerprint
		m.misses++
		return v, nil, false
	}
	m.misses++
	cost = max(cost, 1)
	if cost > m.budget {
		return v, nil, false
	}
	m.entries = slices.Insert(m.entries, 0, modelEntry{key, v, cost})
	m.bytes += cost
	for m.bytes > m.budget {
		last := m.entries[len(m.entries)-1]
		m.entries = m.entries[:len(m.entries)-1]
		m.bytes -= last.cost
		m.evictions++
	}
	return v, nil, false
}

// FuzzLRUMatchesModel drives a small-budget LRU through a sequence of
// Do calls, each byte of ops one call: its low four bits the key (keys
// 12 to 15 collide with 0 to 3), its high four the cost, 15 meaning fn
// fails. Every call's value, error and hit, the Stats after it and the
// committed entries at the end must be the model's, and the resident
// cost never above the budget.
func FuzzLRUMatchesModel(f *testing.F) {
	f.Add(uint8(3), []byte{0x10, 0x11, 0x12, 0x10, 0x13, 0x1c, 0xf0, 0x10, 0x30, 0x0d})
	f.Add(uint8(0), []byte{0x00, 0x0c, 0x00, 0xfc, 0x0c, 0x01})
	f.Add(uint8(15), []byte{0xe0, 0xe1, 0x20, 0x21, 0x22, 0xf2, 0x22, 0x2e, 0x0e, 0x02})
	f.Fuzz(func(t *testing.T, budget uint8, ops []byte) {
		m := &lruModel{budget: int64(budget%16) + 1}
		c := NewLRU[int, int](collideHash, perShard(m.budget))
		for i, b := range ops {
			key, cost, fail := int(b&15), int64(b>>4), b>>4 == 15
			v := i<<4 | key
			got, err, hit := c.Do(key, func() (int, int64, error) {
				if fail {
					return v, cost, errFuzz
				}
				return v, cost, nil
			})
			want, wantErr, wantHit := m.do(key, v, cost, fail)
			if got != want || err != wantErr || hit != wantHit {
				t.Fatalf("op %d: Do(%d) = %d, %v, hit=%v; model says %d, %v, hit=%v", i, key, got, err, hit, want, wantErr, wantHit)
			}
			st := c.Stats()
			wantSt := Stats{Capacity: perShard(m.budget), Bytes: m.bytes, Entries: len(m.entries), Hits: m.hits, Misses: m.misses, Evictions: m.evictions}
			if st != wantSt {
				t.Fatalf("op %d: Stats = %+v, model says %+v", i, st, wantSt)
			}
			if st.Bytes > m.budget {
				t.Fatalf("op %d: %d resident over a shard budget of %d", i, st.Bytes, m.budget)
			}
		}
		for _, e := range m.entries {
			if v, ok := c.peek(e.key); !ok || v != e.v {
				t.Fatalf("key %d holds %d, %v; model says %d", e.key, v, ok, e.v)
			}
		}
	})
}
