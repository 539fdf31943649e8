package store

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
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

// mappedStore opens a store at path holding n records of each kind,
// every one with an output or text of size bytes, closes it and opens
// it again, so that every segment is read through the mapping Open
// made. It returns the reopened store and the keys, unit-test results
// first.
func mappedStore(t *testing.T, path string, n, size int) (*Store, []key) {
	t.Helper()
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]key, 0, 2*n)
	for i := range n {
		k := mappedKey(kindUnit, i)
		s.put(k, mappedRecord(k, size))
		keys = append(keys, k)
	}
	for i := range n {
		k := mappedKey(kindGen, i)
		s.put(k, mappedRecord(k, size))
		keys = append(keys, k)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(path); err != nil {
		t.Fatal(err)
	}
	return s, keys
}

func mappedKey(kd kind, i int) key {
	k := key{kind: kd, a: sha256.Sum256([]byte(fmt.Sprint("mapped-", i)))}
	if kd == kindUnit {
		k.b = sha256.Sum256(k.a[:])
	}
	return k
}

// mappedRecord is k's record: a text of size bytes that names k, so a
// frame read back under the wrong key or from the wrong offset shows.
func mappedRecord(k key, size int) record {
	text := fmt.Sprintf("%x %d ", k.a[:4], k.kind)
	return record{text: text + strings.Repeat("y", max(size-len(text), 0)), num: [numFields]int64{1, int64(k.a[0]), 3}}
}

// mappedLen is how many bytes of a segment's log its mapping covers.
func mappedLen(seg *segment) int {
	seg.lf.mu.RLock()
	defer seg.lf.mu.RUnlock()
	return len(seg.lf.data)
}

// TestTruncatedSegmentReadsMiss: another process may truncate a
// segment under the store's mapping. A frame past the cut then misses,
// whether its bytes read back as the zeros of the cut's last page or
// its page is gone from the file and the read faults; a frame before
// the cut still reads.
func TestTruncatedSegmentReadsMiss(t *testing.T) {
	path := filepath.Join(t.TempDir(), "eval.store")
	s, keys := mappedStore(t, path, 200, 300)
	defer s.Close()
	page := int64(os.Getpagesize())
	cuts := make([]int64, len(s.segs))
	for i, seg := range s.segs {
		cuts[i] = seg.size / 2
		if err := os.Truncate(segPath(path, i), cuts[i]); err != nil {
			t.Fatal(err)
		}
	}
	var before, zeroed, faulted int
	for _, k := range keys {
		_, st := s.route(k)
		e, ok := st.lookup(k)
		if !ok {
			t.Fatalf("key %x is not indexed", k.a[:4])
		}
		var got record
		if k.kind == kindUnit {
			res, hit := s.Get(k.a, k.b)
			got, ok = unitRecord(res), hit
		} else {
			resp, hit := s.GetGen(k.a)
			got, ok = genRecord(resp), hit
		}
		cut := cuts[e.seg]
		switch {
		case e.off+int64(e.n) <= cut:
			before++
			if want := mappedRecord(k, 300); !ok || got != want {
				t.Fatalf("a frame before the cut read %+v, %v; want %+v", got, ok, want)
			}
			continue
		case e.off >= (cut+page-1)/page*page:
			faulted++
		default:
			zeroed++
		}
		if ok {
			t.Fatalf("a frame at %d..%d of segment %d, cut at %d, read %+v; want a miss", e.off, e.off+int64(e.n), e.seg, cut, got)
		}
	}
	t.Logf("%d frames before the cut, %d on its last page, %d on pages past it", before, zeroed, faulted)
	if before == 0 || faulted == 0 {
		t.Fatal("the cut left no frame before it or none on a page wholly past it")
	}
}

// TestReadsOfFramesAppendedAfterOpen: a frame appended after Open,
// past the mapped length or into a log that was empty at Open and has
// no mapping, reads back; the read grows the mapping.
func TestReadsOfFramesAppendedAfterOpen(t *testing.T) {
	for _, n := range []int{0, 20} {
		t.Run(fmt.Sprint(n, " records at Open"), func(t *testing.T) {
			s, _ := mappedStore(t, filepath.Join(t.TempDir(), "eval.store"), n, 1000)
			defer s.Close()
			mapped := make([]int, len(s.segs))
			for i, seg := range s.segs {
				mapped[i] = mappedLen(seg)
			}
			for i := n; i < n+200; i++ {
				for _, kd := range []kind{kindUnit, kindGen} {
					k := mappedKey(kd, i)
					s.put(k, mappedRecord(k, 1000))
					if got, ok := s.get(k); !ok || got != mappedRecord(k, 1000) {
						t.Fatalf("record %d of kind %d, read right after its put: %+v, %v", i, kd, got, ok)
					}
				}
			}
			grown := 0
			for i, seg := range s.segs {
				if mappedLen(seg) > mapped[i] {
					grown++
				}
				if int64(mappedLen(seg)) < seg.size {
					t.Fatalf("segment %d maps %d of its %d bytes after reading every frame", i, mappedLen(seg), seg.size)
				}
			}
			if grown == 0 {
				t.Fatal("no segment's mapping grew")
			}
		})
	}
}

// TestConcurrentGetsAcrossRemap races readers of records already put
// against a writer whose appends outgrow the mappings and whose reads
// of its own frames grow them, so a mapping is replaced while other
// reads are in it. Every read of a published record returns it.
func TestConcurrentGetsAcrossRemap(t *testing.T) {
	const old, fresh, size = 16, 400, 2000
	s, _ := mappedStore(t, filepath.Join(t.TempDir(), "eval.store"), old, size)
	defer s.Close()
	mapped := make([]int, len(s.segs))
	for i, seg := range s.segs {
		mapped[i] = mappedLen(seg)
	}
	var published atomic.Int64
	published.Store(old)
	done := make(chan struct{})
	errc := make(chan error, 4)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				k := mappedKey(kind(i%2), (i*7919)%int(published.Load()))
				if got, ok := s.get(k); !ok || got != mappedRecord(k, size) {
					errc <- fmt.Errorf("published record %x read %+v, %v across a remap", k.a[:4], got, ok)
					return
				}
			}
		}(r)
	}
	for i := old; i < old+fresh; i++ {
		for _, kd := range []kind{kindUnit, kindGen} {
			k := mappedKey(kd, i)
			s.put(k, mappedRecord(k, size))
			// The writer reads its own frame back, past the mapped
			// length, so the mapping grows even when no reader has
			// run yet.
			if got, ok := s.get(k); !ok || got != mappedRecord(k, size) {
				t.Fatalf("record %x read back after its put: %+v, %v", k.a[:4], got, ok)
			}
		}
		published.Store(int64(i + 1))
		runtime.Gosched()
	}
	close(done)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	grown := 0
	for i, seg := range s.segs {
		if mappedLen(seg) > mapped[i] {
			grown++
		}
	}
	if grown == 0 {
		t.Fatal("no segment's mapping grew while the readers ran")
	}
}
