package store

import (
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"testing"

	"cloudeval/internal/unittest"
)

// TestFrameUnderWrongKeyIsMiss: an index entry that points at an intact
// frame recorded under another key — here two entries with their frame
// locations swapped — passes the length and CRC checks of the read
// path. The frame's own key is what catches it: both keys miss, neither
// is served the other's record, and the rest of the store is untouched.
func TestFrameUnderWrongKeyIsMiss(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "eval.store"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 64
	keys := make([]key, n)
	want := make([]unittest.Result, n)
	for i := range keys {
		keys[i] = key{kind: kindUnit, a: sha256.Sum256([]byte(fmt.Sprint("test-", i))), b: sha256.Sum256([]byte(fmt.Sprint("answer-", i)))}
		want[i] = unittest.Result{Passed: i%2 == 0, Output: fmt.Sprintf("output for record %d\n", i), ExitCode: i % 3}
		s.Put(keys[i].a, keys[i].b, want[i])
	}

	_, st0 := s.route(keys[0])
	_, st1 := s.route(keys[1])
	e0, ok0 := st0.lookup(keys[0])
	e1, ok1 := st1.lookup(keys[1])
	if !ok0 || !ok1 {
		t.Fatal("a stored key is not indexed")
	}
	st0.set(keys[0], e1)
	st1.set(keys[1], e0)

	misses := 0
	for i, k := range keys {
		got, ok := s.Get(k.a, k.b)
		if !ok {
			misses++
		} else if got != want[i] {
			t.Fatalf("record %d served another key's frame: %+v, want %+v", i, got, want[i])
		}
	}
	if misses != 2 {
		t.Fatalf("%d records missed, want exactly the 2 whose entries were swapped", misses)
	}
	if s.Len() != n {
		t.Fatalf("Len = %d after the swap, want %d", s.Len(), n)
	}
}
