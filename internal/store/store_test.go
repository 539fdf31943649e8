package store_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"cloudeval/internal/inference"
	"cloudeval/internal/store"
	"cloudeval/internal/unittest"
)

func digests(test, answer string) (t, a [sha256.Size]byte) {
	return sha256.Sum256([]byte(test)), sha256.Sum256([]byte(answer))
}

func genKey(s string) inference.Key { return inference.Key(sha256.Sum256([]byte(s))) }

func genResp(text string) inference.Response {
	return inference.Response{
		Text:    text,
		Usage:   inference.Usage{PromptTokens: 120, CompletionTokens: 34},
		Latency: 1234567891 * time.Nanosecond, // sub-second precision must survive
	}
}

// recordKind runs one scenario against either record kind through the
// exported surface: put records revision rev of the record named id,
// want is what get must then return for it, and count is the kind's
// Len.
type recordKind struct {
	name  string
	put   func(s *store.Store, id string, rev int)
	get   func(s *store.Store, id string) (any, bool)
	want  func(id string, rev int) any
	count func(s *store.Store) int
}

func unitResult(id string, rev int) unittest.Result {
	return unittest.Result{
		Passed:      rev%2 == 0,
		Output:      fmt.Sprintf("%s rev %d\n", id, rev),
		ExitCode:    rev,
		VirtualTime: time.Duration(rev+1) * 1500 * time.Millisecond,
	}
}

func genResponse(id string, rev int) inference.Response {
	r := genResp(fmt.Sprintf("kind: Pod # %s rev %d\n", id, rev))
	r.Usage.CompletionTokens += rev
	return r
}

var recordKinds = []recordKind{
	{
		name: "unit",
		put: func(s *store.Store, id string, rev int) {
			tk, ak := digests(id+"-test", id+"-answer")
			s.Put(tk, ak, unitResult(id, rev))
		},
		get: func(s *store.Store, id string) (any, bool) {
			tk, ak := digests(id+"-test", id+"-answer")
			return s.Get(tk, ak)
		},
		want:  func(id string, rev int) any { return unitResult(id, rev) },
		count: (*store.Store).Len,
	},
	{
		name:  "gen",
		put:   func(s *store.Store, id string, rev int) { s.PutGen(genKey(id), genResponse(id, rev)) },
		get:   func(s *store.Store, id string) (any, bool) { return s.GetGen(genKey(id)) },
		want:  func(id string, rev int) any { return genResponse(id, rev) },
		count: (*store.Store).GenLen,
	},
}

// forEachKind runs scenario once per record kind, as a subtest.
func forEachKind(t *testing.T, scenario func(t *testing.T, rk recordKind)) {
	for _, rk := range recordKinds {
		t.Run(rk.name, func(t *testing.T) { scenario(t, rk) })
	}
}

// mustHold fails unless the store serves revision rev of record id.
func (rk recordKind) mustHold(t *testing.T, s *store.Store, id string, rev int) {
	t.Helper()
	if got, ok := rk.get(s, id); !ok || got != rk.want(id, rev) {
		t.Fatalf("%s record %q = %+v, %v; want %+v", rk.name, id, got, ok, rk.want(id, rev))
	}
}

// segmentPaths lists the store's shard segment files on disk, sorted.
func segmentPaths(t *testing.T, path string) []string {
	t.Helper()
	matches, err := filepath.Glob(path + ".s[0-9]*")
	if err != nil {
		t.Fatal(err)
	}
	segs := matches[:0]
	for _, m := range matches {
		// Index sidecars (<seg>.idx) left by earlier versions are not
		// record bytes.
		if !strings.HasSuffix(m, ".idx") {
			segs = append(segs, m)
		}
	}
	sort.Strings(segs)
	return segs
}

// storeSize sums the on-disk record bytes across every shard segment —
// the sharded replacement for stat(path).Size().
func storeSize(t *testing.T, path string) int64 {
	t.Helper()
	var total int64
	for _, sz := range fileSizes(t, path) {
		total += sz
	}
	return total
}

// fileSizes snapshots each segment's size, keyed by file name.
func fileSizes(t *testing.T, path string) map[string]int64 {
	t.Helper()
	out := map[string]int64{}
	for _, f := range segmentPaths(t, path) {
		fi, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		out[f] = fi.Size()
	}
	return out
}

// copyStore clones the store rooted at src (meta, segments, leftover
// sidecars) to an equivalent layout rooted at dst.
func copyStore(t *testing.T, src, dst string) {
	t.Helper()
	cp := func(from, to string) {
		data, err := os.ReadFile(from)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(to, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(src + ".shards"); err == nil {
		cp(src+".shards", dst+".shards")
	}
	for _, seg := range segmentPaths(t, src) {
		cp(seg, dst+strings.TrimPrefix(seg, src))
		if _, err := os.Stat(seg + ".idx"); err == nil {
			cp(seg+".idx", dst+strings.TrimPrefix(seg, src)+".idx")
		}
	}
}

// countFramesIn walks the frame structure of a log prefix and reports
// how many complete frames fit within limit bytes.
func countFramesIn(data []byte, limit int64) int {
	n := 0
	off := int64(0)
	for off+8 <= limit {
		payload := int64(binary.LittleEndian.Uint32(data[off : off+4]))
		if off+8+payload > limit {
			break
		}
		n++
		off += 8 + payload
	}
	return n
}

// TestPutGetAcrossReopen round-trips each record kind through the log
// exactly, in process and across a reopen. A log holding one kind
// replays with none of the other — for unit-test records that is the
// pre-generation log, written before the generation kind existed.
func TestPutGetAcrossReopen(t *testing.T) {
	forEachKind(t, func(t *testing.T, rk recordKind) {
		path := filepath.Join(t.TempDir(), "eval.store")
		s, err := store.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		rk.put(s, "first", 0)
		rk.put(s, "second", 1)
		rk.mustHold(t, s, "first", 0)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		// A fresh process sees the same records.
		s2, err := store.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		rk.mustHold(t, s2, "first", 0)
		rk.mustHold(t, s2, "second", 1)
		if _, ok := rk.get(s2, "absent"); ok {
			t.Fatal("absent key must miss")
		}
		if got := s2.Len() + s2.GenLen(); rk.count(s2) != 2 || got != 2 {
			t.Fatalf("%s count = %d of %d records, want 2 of 2", rk.name, rk.count(s2), got)
		}
	})
}

// TestVirtualTimeRoundTripsExactly: a result's VirtualTime comes back
// to the nanosecond, read from the pending batch, from disk and across
// a reopen. The JSON layout stored float seconds, which lost 1 ns for
// about 3 % of the millisecond multiples (1.001 s, 1.003 s, ...); the
// binary layout stores the int64.
func TestVirtualTimeRoundTripsExactly(t *testing.T) {
	times := []time.Duration{
		0, 1, 1001 * time.Millisecond, 1003 * time.Millisecond, 4035 * time.Millisecond,
		599999 * time.Millisecond, 90 * time.Second, 1<<63 - 1, -1500 * time.Millisecond,
	}
	// Every millisecond multiple of the first five seconds too: the
	// loss was spread evenly.
	for ms := time.Duration(1); ms <= 5000; ms++ {
		times = append(times, ms*time.Millisecond)
	}
	path := filepath.Join(t.TempDir(), "eval.store")
	s, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	check := func(s *store.Store, when string) {
		t.Helper()
		for i, vt := range times {
			tk, ak := digests("vt-test", fmt.Sprint("vt-answer-", i))
			if got, ok := s.Get(tk, ak); !ok || got.VirtualTime != vt {
				t.Fatalf("%s: VirtualTime %d ns read back as %d ns (found %v)", when, vt, got.VirtualTime, ok)
			}
		}
	}
	for i, vt := range times {
		tk, ak := digests("vt-test", fmt.Sprint("vt-answer-", i))
		s.Put(tk, ak, unittest.Result{Passed: true, VirtualTime: vt})
	}
	check(s, "in process")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	check(s2, "reopened")
}

// TestShardedLayoutOnDisk pins the file layout a fresh store creates:
// a power-of-two shard count persisted in the meta file, one segment
// file per shard, and no legacy single-file log at path itself.
func TestShardedLayoutOnDisk(t *testing.T) {
	path := filepath.Join(t.TempDir(), "eval.store")
	s, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	n := s.Shards()
	if n < 8 || n&(n-1) != 0 {
		t.Fatalf("Shards() = %d, want a power of two >= 8", n)
	}
	if got := len(segmentPaths(t, path)); got != n {
		t.Fatalf("%d segment files on disk, want %d", got, n)
	}
	meta, err := os.ReadFile(path + ".shards")
	if err != nil {
		t.Fatalf("shard meta file missing: %v", err)
	}
	if got := strings.TrimSpace(string(meta)); got != fmt.Sprint(n) {
		t.Fatalf("meta records %q shards, want %d", got, n)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("fresh sharded store created a legacy file at %s", path)
	}
}

// TestShardCountStableAcrossGOMAXPROCS pins routing stability: a
// store created under high parallelism must reopen with the same
// shard count on a smaller machine — the count is a property of the
// store, not of the opening process.
func TestShardCountStableAcrossGOMAXPROCS(t *testing.T) {
	path := filepath.Join(t.TempDir(), "eval.store")
	prev := runtime.GOMAXPROCS(16)
	defer runtime.GOMAXPROCS(prev)
	s, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	created := s.Shards()
	if created < 32 {
		t.Fatalf("Shards() = %d under GOMAXPROCS=16, want >= 32", created)
	}
	tk, ak := digests("t", "a")
	s.Put(tk, ak, unittest.Result{Passed: true})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	runtime.GOMAXPROCS(1)
	s2, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Shards() != created {
		t.Fatalf("reopened with %d shards under GOMAXPROCS=1, created with %d", s2.Shards(), created)
	}
	if _, ok := s2.Get(tk, ak); !ok {
		t.Fatal("record lost across GOMAXPROCS change")
	}
}

// TestShardMetaRebuiltFromSegments simulates losing the meta file: the
// count is re-inferred from the segment files on disk, so records keep
// routing to the shards that hold them.
func TestShardMetaRebuiltFromSegments(t *testing.T) {
	path := filepath.Join(t.TempDir(), "eval.store")
	s, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	n := s.Shards()
	const records = 32
	for i := 0; i < records; i++ {
		tk, ak := digests(fmt.Sprintf("t-%d", i), fmt.Sprintf("a-%d", i))
		s.Put(tk, ak, unittest.Result{Passed: true})
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path + ".shards"); err != nil {
		t.Fatal(err)
	}
	s2, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Shards() != n {
		t.Fatalf("inferred %d shards from segments, created with %d", s2.Shards(), n)
	}
	if s2.Len() != records {
		t.Fatalf("replayed %d records after meta loss, want %d", s2.Len(), records)
	}
}

func TestErroredResultsNeverPersisted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "eval.store")
	s, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tk, ak := digests("t", "a")
	s.Put(tk, ak, unittest.Result{Err: fmt.Errorf("cluster outage")})
	if _, ok := s.Get(tk, ak); ok {
		t.Fatal("errored result was persisted")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d, want 0", s.Len())
	}
}

func TestIdenticalRecordDoesNotGrowLog(t *testing.T) {
	forEachKind(t, func(t *testing.T, rk recordKind) {
		path := filepath.Join(t.TempDir(), "eval.store")
		s, err := store.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		rk.put(s, "same", 0)
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		before := storeSize(t, path)
		for i := 0; i < 10; i++ {
			rk.put(s, "same", 0)
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		if got := s.Appended(); got != 1 {
			t.Fatalf("appended %d records for identical re-puts, want 1", got)
		}
		if after := storeSize(t, path); after != before {
			t.Fatalf("identical re-records grew the log: %d -> %d bytes", before, after)
		}
	})
}

// TestOversizePayloadNotPersisted: replay reads a length prefix above
// 64 MiB as a torn header and truncates the segment there, so a frame
// that large must never be written — one oversized output would take
// every later record in its shard with it on the next Open. The put is
// dropped like an errored result: not persisted, nothing latched.
func TestOversizePayloadNotPersisted(t *testing.T) {
	if testing.Short() {
		t.Skip("encodes a 64 MiB payload")
	}
	path := filepath.Join(t.TempDir(), "eval.store")
	s, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	// Enough normal records after the oversized one that every shard,
	// its own included, takes some.
	const normal = 128
	tk, ak := digests("oversize-test", "oversize-answer")
	s.Put(tk, ak, unittest.Result{Passed: true, Output: strings.Repeat("x", 64<<20)})
	if _, ok := s.Get(tk, ak); ok {
		t.Fatal("oversized record was served")
	}
	for i := 0; i < normal; i++ {
		recordKinds[i%2].put(s, fmt.Sprintf("after-%d", i), i)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("oversized put latched an error: %v", err)
	}

	s2, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, ok := s2.Get(tk, ak); ok {
		t.Fatal("oversized record was persisted")
	}
	for i := 0; i < normal; i++ {
		recordKinds[i%2].mustHold(t, s2, fmt.Sprintf("after-%d", i), i)
	}
	if got := s2.Len() + s2.GenLen(); got != normal {
		t.Fatalf("reopened store holds %d records, want %d", got, normal)
	}
}

// TestCrashSafeReopen is the crash contract: a record torn mid-append
// (simulated by truncating its shard's segment at every possible byte
// boundary of the final frame) is dropped on Open — never fatal — and
// every record before it, in that shard and every other, survives.
func TestCrashSafeReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "eval.store")
	s, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	tk1, ak1 := digests("test-1", "answer-1")
	tk2, ak2 := digests("test-2", "answer-2")
	s.Put(tk1, ak1, unittest.Result{Passed: true, VirtualTime: time.Second})
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	before := fileSizes(t, path)
	s.Put(tk2, ak2, unittest.Result{Passed: false, Output: "boom"})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Find the segment the second record landed in.
	var grown string
	var intactSize int64
	for f, sz := range fileSizes(t, path) {
		if sz > before[f] {
			grown, intactSize = f, before[f]
		}
	}
	if grown == "" {
		t.Fatal("second record grew no segment")
	}
	full, err := os.ReadFile(grown)
	if err != nil {
		t.Fatal(err)
	}

	for cut := intactSize + 1; cut < int64(len(full)); cut++ {
		torn := filepath.Join(dir, fmt.Sprintf("torn-%d.store", cut))
		copyStore(t, path, torn)
		tornSeg := torn + strings.TrimPrefix(grown, path)
		if err := os.WriteFile(tornSeg, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := store.Open(torn)
		if err != nil {
			t.Fatalf("cut at %d: Open failed: %v", cut, err)
		}
		if _, ok := s2.Get(tk1, ak1); !ok {
			t.Fatalf("cut at %d: intact first record lost", cut)
		}
		if _, ok := s2.Get(tk2, ak2); ok {
			t.Fatalf("cut at %d: torn tail record survived", cut)
		}
		// The torn bytes were truncated away: appends after a crash
		// recovery must replay cleanly too.
		s2.Put(tk2, ak2, unittest.Result{Passed: true})
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
		s3, err := store.Open(torn)
		if err != nil {
			t.Fatalf("cut at %d: reopen after recovery append: %v", cut, err)
		}
		if got, ok := s3.Get(tk2, ak2); !ok || !got.Passed {
			t.Fatalf("cut at %d: post-recovery append lost", cut)
		}
		s3.Close()
	}
}

// TestCorruptTailDropped flips a byte in a shard's last record: the
// CRC rejects the frame and Open drops it (plus everything after it in
// that shard) while other shards replay fully.
func TestCorruptTailDropped(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "eval.store")
	s, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	tk1, ak1 := digests("test-1", "answer-1")
	tk2, ak2 := digests("test-2", "answer-2")
	s.Put(tk1, ak1, unittest.Result{Passed: true})
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	before := fileSizes(t, path)
	s.Put(tk2, ak2, unittest.Result{Passed: true})
	s.Close()

	var grown string
	var intactSize int64
	for f, sz := range fileSizes(t, path) {
		if sz > before[f] {
			grown, intactSize = f, before[f]
		}
	}
	if grown == "" {
		t.Fatal("second record grew no segment")
	}
	data, err := os.ReadFile(grown)
	if err != nil {
		t.Fatal(err)
	}
	data[intactSize+12] ^= 0xFF // inside the second record's payload
	if err := os.WriteFile(grown, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := store.Open(path)
	if err != nil {
		t.Fatalf("Open on corrupt tail: %v", err)
	}
	defer s2.Close()
	if _, ok := s2.Get(tk1, ak1); !ok {
		t.Fatal("intact record before corruption lost")
	}
	if _, ok := s2.Get(tk2, ak2); ok {
		t.Fatal("corrupt record served")
	}
}

// TestCompactKeepsNewestPerKey re-records one key with changed
// content, compacts, and requires the newest record to win — both in
// memory and on a replay of the compacted segments — while a record of
// the other kind rides through the same rewrite untouched.
func TestCompactKeepsNewestPerKey(t *testing.T) {
	forEachKind(t, func(t *testing.T, rk recordKind) {
		other := recordKinds[0]
		if other.name == rk.name {
			other = recordKinds[1]
		}
		path := filepath.Join(t.TempDir(), "eval.store")
		s, err := store.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		const newest = 4
		rk.put(s, "rerun", 0)
		other.put(s, "bystander", 0)
		for rev := 1; rev <= newest; rev++ {
			rk.put(s, "rerun", rev)
		}

		before := storeSize(t, path)
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		if after := storeSize(t, path); after >= before {
			t.Errorf("compaction did not shrink the store: %d -> %d bytes", before, after)
		}
		rk.mustHold(t, s, "rerun", newest)
		// The store stays writable after the handle swap.
		rk.put(s, "post-compact", 0)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		s2, err := store.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		if rk.count(s2) != 2 || other.count(s2) != 1 {
			t.Fatalf("replayed %d %s + %d %s keys, want 2 + 1", rk.count(s2), rk.name, other.count(s2), other.name)
		}
		rk.mustHold(t, s2, "rerun", newest)
		rk.mustHold(t, s2, "post-compact", 0)
		other.mustHold(t, s2, "bystander", 0)
	})
}

// TestKindsNeverAlias uses the same 32 bytes as a generation key and
// as a unit-test test digest (zero answer digest): both route to the
// same shard and stripe, and must stay two records — in the index,
// on every read, through Compact and a reopen, and in Len/GenLen.
func TestKindsNeverAlias(t *testing.T) {
	path := filepath.Join(t.TempDir(), "eval.store")
	shared := sha256.Sum256([]byte("shared bytes"))
	var zero [sha256.Size]byte
	unit := unittest.Result{Passed: true, Output: "unit side\n", VirtualTime: 3 * time.Second}
	gen := genResp("generation side\n")

	s, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	// Only the generation exists: the unit-test lookup must miss, before
	// and after the generation has been read.
	s.PutGen(inference.Key(shared), gen)
	for pass := 0; pass < 2; pass++ {
		if _, ok := s.Get(shared, zero); ok {
			t.Fatalf("pass %d: a generation was served as a unit-test result", pass)
		}
		if got, ok := s.GetGen(inference.Key(shared)); !ok || got != gen {
			t.Fatalf("pass %d: GetGen = %+v, %v", pass, got, ok)
		}
	}
	s.Put(shared, zero, unit)

	check := func(s *store.Store, when string) {
		t.Helper()
		for pass := 0; pass < 2; pass++ {
			if got, ok := s.Get(shared, zero); !ok || got != unit {
				t.Fatalf("%s, pass %d: Get = %+v, %v; want %+v", when, pass, got, ok, unit)
			}
			if got, ok := s.GetGen(inference.Key(shared)); !ok || got != gen {
				t.Fatalf("%s, pass %d: GetGen = %+v, %v; want %+v", when, pass, got, ok, gen)
			}
		}
		if s.Len() != 1 || s.GenLen() != 1 {
			t.Fatalf("%s: Len/GenLen = %d/%d, want 1/1", when, s.Len(), s.GenLen())
		}
	}
	check(s, "in process")
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	check(s, "after Compact")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.LastOpen(); st.ScannedFrames != 2 {
		t.Fatalf("reopen did not scan both records: %+v", st)
	}
	check(s2, "reopened")
}

// TestCompactConcurrentWithAppends races repeated full compactions
// against appenders hammering every shard: nothing deadlocks, nothing
// is lost, and the final replay sees every record — the non-blocking
// per-shard compaction claim exercised under -race.
func TestCompactConcurrentWithAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "eval.store")
	s, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	const writers = 8
	const perWriter = 64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Appenders hammer all shards while Compact runs several times.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tk, ak := digests(fmt.Sprintf("cc-test-%d", w), fmt.Sprintf("cc-answer-%d-%d", w, i))
				s.Put(tk, ak, unittest.Result{Passed: true})
			}
		}(w)
	}
	var compactErr error
	var cwg sync.WaitGroup
	cwg.Add(1)
	go func() {
		defer cwg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Compact(); err != nil {
				compactErr = err
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	cwg.Wait()
	if compactErr != nil {
		t.Fatal(compactErr)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != writers*perWriter {
		t.Fatalf("replayed %d keys after concurrent compaction, want %d", s2.Len(), writers*perWriter)
	}
}

// TestTornMultiFrameBatchTruncates is the group-commit crash contract,
// run per shard: a batch of several frames written as one syscall and
// torn at any byte boundary must recover to the last intact frame of
// that shard — and every other shard must replay fully. The per-frame
// CRC framing, not the batch, is the unit of crash safety; a torn
// tail in shard k loses nothing in shards != k.
func TestTornMultiFrameBatchTruncates(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "eval.store")
	s, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	// Force multi-frame flushes: concurrent writers gated to enqueue
	// together so each shard's committer drains several frames in one
	// batch.
	const writers = 32
	var start, wg sync.WaitGroup
	start.Add(1)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start.Wait()
			tk, ak := digests(fmt.Sprintf("batch-test-%d", i), fmt.Sprintf("batch-answer-%d", i))
			s.Put(tk, ak, unittest.Result{Passed: true, Output: fmt.Sprintf("out-%d", i)})
		}(i)
	}
	start.Done()
	wg.Wait()
	total := s.Len()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear each shard's segment at byte boundaries; every truncated
	// prefix must open cleanly, hold exactly the frames of that shard
	// that fit intact, and lose nothing from any other shard.
	tornID := 0
	for _, seg := range segmentPaths(t, path) {
		full, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if len(full) == 0 {
			continue
		}
		segFrames := countFramesIn(full, int64(len(full)))
		for cut := int64(0); cut < int64(len(full)); cut += 7 {
			tornID++
			torn := filepath.Join(dir, fmt.Sprintf("torn-%d.store", tornID))
			copyStore(t, path, torn)
			tornSeg := torn + strings.TrimPrefix(seg, path)
			if err := os.WriteFile(tornSeg, full[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			s2, err := store.Open(torn)
			if err != nil {
				t.Fatalf("%s cut at %d: Open failed: %v", filepath.Base(seg), cut, err)
			}
			got := s2.Len()
			s2.Close()
			st, err := os.Stat(tornSeg)
			if err != nil {
				t.Fatal(err)
			}
			if st.Size() > cut {
				t.Fatalf("%s cut at %d: recovered segment grew to %d bytes", filepath.Base(seg), cut, st.Size())
			}
			want := total - segFrames + countFramesIn(full, cut)
			if got != want {
				t.Fatalf("%s cut at %d: recovered %d records, want %d (torn shard holds %d of %d)",
					filepath.Base(seg), cut, got, want, segFrames, total)
			}
		}
	}
	if tornID == 0 {
		t.Fatal("no non-empty segment files to tear")
	}
}

// TestGroupCommitBatchesConcurrentAppends verifies the per-shard
// committers actually coalesce: with many concurrent writers, flush
// batches (syscalls) number strictly fewer than appended frames, and
// every record still lands durably.
func TestGroupCommitBatchesConcurrentAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "eval.store")
	s, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	const writers = 32
	const perWriter = 16
	var start, wg sync.WaitGroup
	start.Add(1)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			start.Wait()
			for i := 0; i < perWriter; i++ {
				tk, ak := digests(fmt.Sprintf("gc-test-%d", w), fmt.Sprintf("gc-answer-%d-%d", w, i))
				s.Put(tk, ak, unittest.Result{Passed: true})
			}
		}(w)
	}
	start.Done()
	wg.Wait()
	appended, flushes := s.Appended(), s.Flushes()
	if appended != writers*perWriter {
		t.Fatalf("appended %d, want %d", appended, writers*perWriter)
	}
	if flushes <= 0 || flushes > appended {
		t.Fatalf("flushes = %d, want in [1, %d]", flushes, appended)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != writers*perWriter {
		t.Fatalf("replayed %d keys, want %d", s2.Len(), writers*perWriter)
	}
}

// TestShardStatsAccounting pins the monitoring surface: per-shard
// record counts sum to Len/GenLen and per-shard append/flush counters
// sum to the aggregates.
func TestShardStatsAccounting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "eval.store")
	s, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const records = 64
	for i := 0; i < records; i++ {
		tk, ak := digests(fmt.Sprintf("ss-test-%d", i), fmt.Sprintf("ss-answer-%d", i))
		s.Put(tk, ak, unittest.Result{Passed: true})
	}
	stats := s.ShardStats()
	if len(stats) != s.Shards() {
		t.Fatalf("ShardStats returned %d entries, want %d", len(stats), s.Shards())
	}
	var recs int
	var appended, flushes int64
	spread := 0
	for _, st := range stats {
		recs += st.Records
		appended += st.Appended
		flushes += st.Flushes
		if st.Records > 0 {
			spread++
		}
	}
	if recs != s.Len() || recs != records {
		t.Fatalf("per-shard records sum %d, want Len %d = %d", recs, s.Len(), records)
	}
	if appended != s.Appended() {
		t.Fatalf("per-shard appended sum %d, want %d", appended, s.Appended())
	}
	if flushes != s.Flushes() {
		t.Fatalf("per-shard flushes sum %d, want %d", flushes, s.Flushes())
	}
	// 64 digest-distributed keys across >= 8 shards: the routing would
	// have to be badly broken for everything to land in one shard.
	if spread < 2 {
		t.Fatalf("all %d records landed in %d shard(s) — routing is not spreading keys", records, spread)
	}
}

func TestConcurrentPutGet(t *testing.T) {
	path := filepath.Join(t.TempDir(), "eval.store")
	s, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tk, ak := digests(fmt.Sprintf("test-%d", i%8), fmt.Sprintf("answer-%d", i))
			s.Put(tk, ak, unittest.Result{Passed: i%2 == 0})
			s.Get(tk, ak)
		}(i)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != n {
		t.Fatalf("replayed %d keys, want %d", s2.Len(), n)
	}
}

// TestStoreReadAllocs: a Get or GetGen of a stored record allocates
// once, for the text it returns, whether the key is read for the first
// time or again; a miss allocates nothing.
func TestStoreReadAllocs(t *testing.T) {
	s, err := store.Open(filepath.Join(t.TempDir(), "eval.store"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 100
	type unitKey struct{ test, answer [sha256.Size]byte }
	units := make([]unitKey, n)
	gens := make([]inference.Key, n)
	for i := range units {
		units[i].test, units[i].answer = digests(fmt.Sprint("allocs-test-", i), fmt.Sprint("allocs-answer-", i))
		s.Put(units[i].test, units[i].answer, unitResult("allocs", i))
		gens[i] = genKey(fmt.Sprint("allocs-gen-", i))
		s.PutGen(gens[i], genResponse("allocs", i))
	}
	missed := false
	get := func(u unitKey) {
		if _, ok := s.Get(u.test, u.answer); !ok {
			missed = true
		}
	}
	getGen := func(k inference.Key) {
		if _, ok := s.GetGen(k); !ok {
			missed = true
		}
	}
	// AllocsPerRun calls f runs+1 times: every call reads a new key.
	next := 0
	firstGet := testing.AllocsPerRun(n-1, func() { get(units[next]); next++ })
	next = 0
	firstGetGen := testing.AllocsPerRun(n-1, func() { getGen(gens[next]); next++ })
	repeatGet := testing.AllocsPerRun(n, func() { get(units[0]) })
	repeatGetGen := testing.AllocsPerRun(n, func() { getGen(gens[0]) })
	if missed {
		t.Fatal("a stored record missed")
	}
	absentTest, absentAnswer := digests("absent-test", "absent-answer")
	miss := testing.AllocsPerRun(n, func() {
		if _, ok := s.Get(absentTest, absentAnswer); ok {
			missed = true
		}
		if _, ok := s.GetGen(genKey("absent")); ok {
			missed = true
		}
	})
	if missed {
		t.Fatal("an absent key hit")
	}
	if firstGet != 1 || firstGetGen != 1 || repeatGet != 1 || repeatGetGen != 1 || miss != 0 {
		t.Errorf("allocs per read: Get %v first / %v repeat, GetGen %v first / %v repeat, miss %v; want 1, 1, 1, 1, 0",
			firstGet, repeatGet, firstGetGen, repeatGetGen, miss)
	}
}

// TestCompactConcurrentWithGets hammers Get/GetGen while Compact
// rewrites every shard: readers must never observe a missing or wrong
// record through the handle swap (they ride errLogClosed retries onto
// the refreshed entries).
func TestCompactConcurrentWithGets(t *testing.T) {
	path := filepath.Join(t.TempDir(), "eval.store")
	s, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const n = 64
	wantRec := make([]unittest.Result, n)
	wantGen := make([]inference.Response, n)
	for i := 0; i < n; i++ {
		tk, ak := digests(fmt.Sprintf("ct-%d", i), fmt.Sprintf("ca-%d", i))
		wantRec[i] = unittest.Result{Passed: true, Output: fmt.Sprintf("out-%d", i)}
		s.Put(tk, ak, wantRec[i])
		wantGen[i] = inference.Response{Text: fmt.Sprintf("gen-%d", i)}
		s.PutGen(genKey(fmt.Sprintf("cg-%d", i)), wantGen[i])
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := (w + i) % n
				tk, ak := digests(fmt.Sprintf("ct-%d", k), fmt.Sprintf("ca-%d", k))
				if got, ok := s.Get(tk, ak); !ok || got != wantRec[k] {
					select {
					case errc <- fmt.Errorf("Get(%d) = %+v, %v during compact", k, got, ok):
					default:
					}
					return
				}
				if got, ok := s.GetGen(genKey(fmt.Sprintf("cg-%d", k))); !ok || got != wantGen[k] {
					select {
					case errc <- fmt.Errorf("GetGen(%d) = %+v, %v during compact", k, got, ok):
					default:
					}
					return
				}
			}
		}(w)
	}
	for i := 0; i < 5; i++ {
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}

// parentV1 copies testdata/parent-v1, a store directory written by the
// commit before the single record path, and returns the copy's path.
// Its 8 shards hold parentV1Records unit-test records and parentV1Gens
// generations, every frame JSON: 24 records (key 0 re-recorded once)
// and 12 generations compacted into segments beside version-1 index
// sidecars, then a tail of 4 more records, 2 more generations and a
// re-record of key 5 — 43 frames in all.
func parentV1(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "evalstore")
	copyStore(t, filepath.Join("testdata", "parent-v1", "evalstore"), path)
	return path
}

const parentV1Records, parentV1Gens = 28, 14

// parentV1Result is the i-th unit-test record parentV1 was written with.
func parentV1Result(i int) unittest.Result {
	return unittest.Result{
		Passed:      i%2 == 0,
		Output:      fmt.Sprintf("compat output %d\n", i),
		ExitCode:    i % 3,
		VirtualTime: time.Duration(i) * 1500 * time.Millisecond,
	}
}

// requireParentV1 fails unless s holds exactly parentV1's records, each
// as last written.
func requireParentV1(t *testing.T, s *store.Store) {
	t.Helper()
	if s.Shards() != 8 || s.Len() != parentV1Records || s.GenLen() != parentV1Gens {
		t.Fatalf("Shards/Len/GenLen = %d/%d/%d, want 8/%d/%d", s.Shards(), s.Len(), s.GenLen(), parentV1Records, parentV1Gens)
	}
	for i := 0; i < parentV1Records; i++ {
		want := parentV1Result(i)
		if i == 5 {
			want = parentV1Result(105) // re-recorded after the compaction
		}
		tk, ak := digests(fmt.Sprintf("compat-test-%d", i), fmt.Sprintf("compat-answer-%d", i))
		if got, ok := s.Get(tk, ak); !ok || got != want {
			t.Fatalf("record %d: Get = %+v, %v; want %+v", i, got, ok, want)
		}
	}
	for i := 0; i < parentV1Gens; i++ {
		want := inference.Response{
			Text:    fmt.Sprintf("kind: Pod # %d\n", i),
			Usage:   inference.Usage{PromptTokens: 100 + i, CompletionTokens: 30 + i},
			Latency: time.Duration(i+1) * 1234567 * time.Nanosecond,
		}
		if got, ok := s.GetGen(genKey(fmt.Sprintf("compat-gen-%d", i))); !ok || got != want {
			t.Fatalf("generation %d: GetGen = %+v, %v; want %+v", i, got, ok, want)
		}
	}
}

// TestParentWrittenStoreOpens: every record of testdata/parent-v1 reads
// back as written. Open reads no sidecar, so the store is scanned in
// full, both as the parent left it and after a Compact.
func TestParentWrittenStoreOpens(t *testing.T) {
	path := parentV1(t)
	s, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	// 36 compacted frames + a 7-frame tail.
	if st := s.LastOpen(); st.ScannedFrames != 43 {
		t.Fatalf("LastOpen = %+v, want a full scan of 43 frames", st)
	}
	requireParentV1(t, s)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.LastOpen(); st.ScannedFrames != parentV1Records+parentV1Gens {
		t.Fatalf("LastOpen after Compact = %+v, want a full scan of %d frames", st, parentV1Records+parentV1Gens)
	}
	requireParentV1(t, s2)
}

// TestCompactRemovesLeftoverSidecars is the downgrade guard: Compact
// deletes the index sidecars an earlier version left beside the
// segments it rewrites, so a binary that still reads them never trusts
// one describing bytes that are gone. Every record and generation
// reads back afterwards.
func TestCompactRemovesLeftoverSidecars(t *testing.T) {
	path := parentV1(t)
	sidecars := func() []string {
		t.Helper()
		m, err := filepath.Glob(path + ".s[0-9]*.idx")
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	if len(sidecars()) == 0 {
		t.Fatal("fixture ships no sidecars")
	}
	s, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if left := sidecars(); len(left) != 0 {
		t.Fatalf("sidecars left after Compact: %v", left)
	}
	requireParentV1(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	requireParentV1(t, s2)
}

// TestMixedFormatStore grows the parent-written fixture — every frame
// of it JSON — with the binary frames written today, and carries the
// mixture through the store's whole life cycle: newest wins across
// layouts, an identical re-put of a binary frame appends nothing,
// Compact copies both layouts raw, and a reopen's scan counts what is
// still JSON.
func TestMixedFormatStore(t *testing.T) {
	path := parentV1(t)
	const fresh = 5
	rerun := unittest.Result{Passed: true, Output: "re-run under the binary layout\n", VirtualTime: 1001 * time.Millisecond}
	verify := func(s *store.Store, when string) {
		t.Helper()
		if s.Len() != parentV1Records+fresh || s.GenLen() != parentV1Gens+fresh {
			t.Fatalf("%s: Len/GenLen = %d/%d, want %d/%d", when, s.Len(), s.GenLen(), parentV1Records+fresh, parentV1Gens+fresh)
		}
		for i := 0; i < parentV1Records; i++ {
			want := parentV1Result(i)
			switch i {
			case 5:
				want = parentV1Result(105) // re-recorded by the parent
			case 7:
				want = rerun // re-recorded here
			}
			tk, ak := digests(fmt.Sprintf("compat-test-%d", i), fmt.Sprintf("compat-answer-%d", i))
			if got, ok := s.Get(tk, ak); !ok || got != want {
				t.Fatalf("%s: record %d: Get = %+v, %v; want %+v", when, i, got, ok, want)
			}
		}
		for i := 0; i < parentV1Gens; i++ {
			if got, ok := s.GetGen(genKey(fmt.Sprintf("compat-gen-%d", i))); !ok || got.Text != fmt.Sprintf("kind: Pod # %d\n", i) {
				t.Fatalf("%s: generation %d: GetGen = %+v, %v", when, i, got, ok)
			}
		}
		for i := 0; i < fresh; i++ {
			id := fmt.Sprintf("mixed-%d", i)
			recordKinds[0].mustHold(t, s, id, i)
			recordKinds[1].mustHold(t, s, id, i)
		}
	}

	s, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.LastOpen(); st.ScannedFrames != 43 || st.LegacyFrames != 43 {
		t.Fatalf("LastOpen = %+v, want 43 scanned frames, all JSON", st)
	}
	for i := 0; i < fresh; i++ {
		id := fmt.Sprintf("mixed-%d", i)
		recordKinds[0].put(s, id, i)
		recordKinds[1].put(s, id, i)
	}
	tk7, ak7 := digests("compat-test-7", "compat-answer-7")
	s.Put(tk7, ak7, rerun)
	if got := s.Appended(); got != 2*fresh+1 {
		t.Fatalf("appended %d frames, want %d", got, 2*fresh+1)
	}
	// Identical re-puts of binary frames are recognised by length + CRC.
	s.Put(tk7, ak7, rerun)
	recordKinds[1].put(s, "mixed-0", 0)
	if got := s.Appended(); got != 2*fresh+1 {
		t.Fatalf("identical re-puts grew the log: %d frames appended, want %d", got, 2*fresh+1)
	}
	verify(s, "in process")
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	verify(s, "after Compact")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	const live = parentV1Records + parentV1Gens + 2*fresh
	s2, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	// Compact copied frames raw: record 7 and the fresh ones are binary,
	// every other live frame is still the JSON the parent wrote.
	if st := s2.LastOpen(); st.ScannedFrames != live || st.LegacyFrames != live-2*fresh-1 {
		t.Fatalf("LastOpen after Compact = %+v, want %d scanned, %d JSON", st, live, live-2*fresh-1)
	}
	verify(s2, "reopened")
}
