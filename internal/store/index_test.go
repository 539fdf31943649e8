package store

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"cloudeval/internal/inference"
	"cloudeval/internal/unittest"
)

// TestIndexEntryHoldsNoPointers: an index slot — the fingerprint and
// the entry — holds nothing the garbage collector has to follow, so the
// maps' backing arrays are never scanned, and an entry stays at most
// 24 bytes. A field that breaks either fails here, not in a profile.
func TestIndexEntryHoldsNoPointers(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.String,
			reflect.Map, reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %s: the index maps would be scanned by the GC", path, typ.Kind())
		}
	}
	m := reflect.TypeOf(stripe{}.m)
	walk("stripe.m key", m.Key())
	walk("entry", m.Elem())
	if m.Elem() != reflect.TypeOf(entry{}) {
		t.Errorf("stripe.m holds %s, want entry", m.Elem())
	}
	if size := unsafe.Sizeof(entry{}); size > 24 {
		t.Errorf("unsafe.Sizeof(entry{}) = %d, want <= 24", size)
	}
}

// collidingPairs builds, by hand, pairs of distinct keys that share
// shard, stripe and fingerprint: two generations, two unit-test
// results, and a unit-test result with a generation. The fingerprint
// reads bytes 8–15 of each digest, so the first two pairs differ only
// elsewhere, and the third solves for the generation's bytes 0, 1 and
// 8–15.
func collidingPairs(t *testing.T) map[string][2]key {
	t.Helper()
	flip := func(d [sha256.Size]byte, i int) [sha256.Size]byte { d[i] ^= 0x5a; return d }
	gen := key{kind: kindGen, a: sha256.Sum256([]byte("gen"))}
	unit := key{kind: kindUnit, a: sha256.Sum256([]byte("test")), b: sha256.Sum256([]byte("answer"))}
	solved := key{kind: kindGen, a: flip(unit.a, 20)}
	solved.a[0], solved.a[1] = unit.a[0]^unit.b[0], unit.a[1]^unit.b[1]
	// A generation's fingerprint is linear in its bytes 8–15.
	binary.LittleEndian.PutUint64(solved.a[8:16], unit.fingerprint()^key{kind: kindGen}.fingerprint())
	pairs := map[string][2]key{
		"gen/gen":   {gen, {kind: kindGen, a: flip(gen.a, 20)}},
		"unit/unit": {unit, {kind: kindUnit, a: flip(unit.a, 31), b: flip(unit.b, 2)}},
		"unit/gen":  {unit, solved},
	}
	for name, p := range pairs {
		x, y := p[0], p[1]
		if x == y || x.shard(maxShards-1) != y.shard(maxShards-1) || x.stripe() != y.stripe() || x.fingerprint() != y.fingerprint() {
			t.Fatalf("%s: keys do not collide (shard %d/%d, stripe %d/%d, fingerprint %x/%x): rebuild them for the current fingerprint",
				name, x.shard(maxShards-1), y.shard(maxShards-1), x.stripe(), y.stripe(), x.fingerprint(), y.fingerprint())
		}
	}
	return pairs
}

// putKey records under k a record that names it; getKey reads k back.
func putKey(s *Store, k key, name string) {
	if k.kind == kindGen {
		s.PutGen(inference.Key(k.a), inference.Response{Text: name})
	} else {
		s.Put(k.a, k.b, unittest.Result{Output: name})
	}
}

func getKey(s *Store, k key) (string, bool) {
	if k.kind == kindGen {
		r, ok := s.GetGen(inference.Key(k.a))
		return r.Text, ok
	}
	r, ok := s.Get(k.a, k.b)
	return r.Output, ok
}

// TestFingerprintCollisionIsMiss: two keys that share shard, stripe and
// fingerprint share one index slot. Through puts, re-puts and a reopen
// each key reads back its own record or misses — never the other's —
// the newest put always reads back, and Len/GenLen count the one slot:
// never negative, never more than the distinct keys of their kind.
func TestFingerprintCollisionIsMiss(t *testing.T) {
	for name, p := range collidingPairs(t) {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "eval.store")
			s, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			names := map[key]string{p[0]: "x", p[1]: "y"}
			distinct := [numKinds]int{}
			seen := map[key]bool{}
			check := func(s *Store, when string, newest key) {
				t.Helper()
				for k, want := range names {
					got, ok := getKey(s, k)
					if ok && got != want {
						t.Fatalf("%s: key %s read %q, another key's record", when, want, got)
					}
					if k == newest && !ok {
						t.Fatalf("%s: key %s, the newest put, missed", when, want)
					}
				}
				for kd, n := range [numKinds]int{s.Len(), s.GenLen()} {
					if n < 0 || n > distinct[kd] {
						t.Fatalf("%s: kind %d counts %d, want 0..%d", when, kd, n, distinct[kd])
					}
				}
				if s.Len()+s.GenLen() != 1 {
					t.Fatalf("%s: Len+GenLen = %d+%d, want the one shared slot", when, s.Len(), s.GenLen())
				}
			}
			put := func(s *Store, k key) {
				if !seen[k] {
					seen[k] = true
					distinct[k.kind]++
				}
				putKey(s, k, names[k])
			}
			for i, k := range []key{p[0], p[1], p[0], p[0], p[1]} {
				put(s, k)
				check(s, fmt.Sprintf("after put %d (%s)", i, names[k]), k)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s, err = Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if st := s.LastOpen(); st.ScannedFrames != 4 {
				t.Fatalf("reopen scanned %d frames, want 4 (the repeated put of x appended nothing)", st.ScannedFrames)
			}
			check(s, "reopened", p[1])
			put(s, p[0])
			check(s, "reopened, x put again", p[0])
		})
	}
}

// residentTestRecords is how many records TestResidentBytesTracksHeap
// indexes: enough that the index dwarfs the rest of an open store.
const residentTestRecords = 100_000

// TestResidentBytesTracksHeap: ResidentBytes of a store holding 100k
// mixed records is within 25 % of what opening it leaves on the heap
// after a collection — the index and nothing else.
func TestResidentBytesTracksHeap(t *testing.T) {
	path := filepath.Join(t.TempDir(), "eval.store")
	// Eight shards whatever GOMAXPROCS is, so every run measures the
	// same map sizes.
	if err := os.WriteFile(segPath(path, minShards-1), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range residentTestRecords {
		k := key{kind: kindGen, a: sha256.Sum256(binary.LittleEndian.AppendUint64(nil, uint64(i)))}
		if i%3 == 0 {
			k.kind, k.b = kindUnit, sha256.Sum256(k.a[:])
		}
		putKey(s, k, "r")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	runtime.GC()
	runtime.ReadMemStats(&after)
	heap := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if n := s.Len() + s.GenLen(); n != residentTestRecords {
		t.Fatalf("indexed %d records, want %d", n, residentTestRecords)
	}
	got := s.ResidentBytes()
	t.Logf("ResidentBytes %d, heap delta %d (%.1f B per record)", got, heap, float64(heap)/residentTestRecords)
	if got < heap*3/4 || got > heap*5/4 {
		t.Fatalf("ResidentBytes = %d, heap grew %d: more than 25 %% apart", got, heap)
	}
}
