// Package store is the persistent, content-addressed evaluation store:
// the second cache tier under engine.Engine.UnitTest. Where the
// engine's in-memory map dies with the process, the store is an
// append-only on-disk log of (unit-test-script digest, answer digest)
// → unit-test result records, so repeated campaigns across processes —
// and across CI runs via cache restore — hit disk instead of the
// simulated cluster.
//
// The log holds two record kinds sharing one frame envelope: unit-test
// results (the original kind, engine.CacheStore) and generation
// results (inference.GenStore — model responses keyed by the
// generation request's content address), so one store carries a
// campaign's full warm state: a re-campaign neither generates nor
// executes anything.
//
// # One record path
//
// Inside the package a record is a (key, record) pair and nothing
// else: key is {kind byte; a, b digest} — (test, answer) for a
// unit-test result, (request key, zero) for a generation — and record
// is the decoded payload (three int64 fields and the output or text).
// One index, one get, one put and one compaction loop serve every
// kind; Get/Put/GetGen/PutGen only convert records to and from
// unittest.Result and inference.Response, and the payload codec
// (codec.go: appendFrame for put, payloadKey for the scan, decode for get)
// is the only code that knows what a payload looks like. The kind byte
// is part of the key everywhere a key is used (index, frame, compaction
// order), so the same 32 bytes used as a generation key and as a
// unit-test digest never alias.
//
// # Sharded layout
//
// The store is partitioned into N key-range shards (N a power of two,
// persisted in the <path>.shards meta file so routing never changes
// for an existing store): a key's leading digest byte selects its
// shard, and each shard owns its own segment file <path>.sNN, its own
// group-commit pending buffer and committer, and its own index
// stripes. Concurrent Puts to different shards land on independent
// files with independent write batches instead of serializing on one
// committer; Open replays all segments in parallel (one goroutine and
// one reusable payload buffer per shard); Compact rewrites shards
// concurrently, and compacting shard k never blocks appends to the
// others.
//
// A regular file at <path> itself is a log in the pre-shard
// single-file layout. Open migrates it once — its newest frame per
// key, raw, into the owning shards, unless a segment already holds
// that key — and removes it (see migrateLegacy); nothing else in the
// package knows the layout existed.
//
// # On-disk format
//
// Every segment is a sequence of length-prefixed, checksummed records:
//
//	[4-byte LE payload length][4-byte LE CRC-32C of payload][payload]
//
// A payload is in one of two layouts, told apart by its first byte.
// The binary layout is the one written: tag 0x01 (unit-test result) or
// 0x02 (generation), the key's raw digests, three little-endian int64
// fields, then the output or text to the end of the payload (codec.go
// has the offsets). The JSON layout — a '{', hex digests, named fields
// — is what every store wrote before; it is read wherever it is found
// and never written again (jsonframe.go). There is no conversion pass:
// Compact copies frames raw, so a segment may hold both, and a JSON
// frame lives until its key is re-recorded with different content.
// Any other first byte, or a binary payload shorter than its fixed
// header, is a corrupt frame exactly like a failed checksum.
// OpenStats.LegacyFrames counts the JSON frames an Open scanned.
//
// Writes are crash-safe by construction: a record torn by a crash or a
// truncated copy fails its length or checksum check, and Open drops
// everything from the first bad frame onward (that file's tail)
// instead of failing — a torn tail in shard k loses nothing in shards
// ≠ k. Each log is append-only — a re-recorded key simply appends a
// newer record, and the newest record per key wins on replay. Compact
// rewrites each shard to one record per key (newest wins) via an
// atomic rename. A payload may not exceed maxPayload (64 MiB): replay
// reads a larger length prefix as a torn header, so put refuses to
// write one.
//
// # Concurrency and durability
//
// Per-shard indexes are striped behind RWMutexes, so warm-store reads
// never contend with appends or each other. Appends group-commit per
// shard: each writer encodes its frame under the shard's log lock,
// straight into the pending buffer that one of them — the committer —
// drains with a single write syscall (the buffer of the previous write
// is reused for the next batch), then releases every writer whose
// frames it carried. N concurrent Puts to one shard cost one syscall
// instead of N, and Puts to different shards batch independently.
//
// The durability contract, precisely: a returned Put/PutGen means its
// group-commit batch completed a write(2) — the frame is in the
// kernel's page cache, visible to every reader of the file and safe
// from a crash of this process, but not from a power loss. Only Sync,
// Close and Compact fsync. A crash mid-write leaves a torn tail that
// the next Open truncates to the last intact frame.
//
// # Out-of-core index
//
// The resident index holds no payloads: each stripe maps a key to an
// {owning log, offset, frame length, payload CRC} entry, so resident
// cost per record is ~130 bytes regardless of how large its output or
// response text is. A read preads the frame on demand into a pooled
// buffer, re-verifies its length and checksum against the entry,
// decodes it and checks that the key inside the frame is the key asked
// for (anything else is a miss). Nothing decoded is kept: the engine's
// and the dispatcher's memo.LRUs above the store already hold what a
// process reads twice, so RSS is bounded by index size, not corpus
// size, and a read allocates only the text it returns.
//
// Open rebuilds the index by scanning every segment through a buffered
// reader: per frame a checksum, a bounds check and a copy of the key
// from its fixed offsets. A Table 4 campaign store (5,736 results +
// 13,195 generations, 6 MB) opens in about 6 ms on the 2-vCPU reference
// box — it was 43 ms when every frame was JSON — most of it building
// the index maps rather than reading frames.
//
// Open never reads the index sidecars (<segment>.idx) earlier versions
// wrote at Compact; Compact deletes a shard's leftover one (see
// segment.compact).
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"cloudeval/internal/inference"
	"cloudeval/internal/memo"
	"cloudeval/internal/unittest"
)

// kind is a record's type. It leads the index key, so the key spaces
// of different kinds are disjoint by construction.
type kind byte

const (
	kindUnit kind = iota // unit-test result (engine.CacheStore)
	kindGen              // generation result (inference.GenStore)
	numKinds
)

// key addresses one record everywhere the store needs an address: the
// offset index, the frame and compaction order. a and b are (test
// digest, answer digest) for a unit-test result and (request key,
// zero) for a generation.
type key struct {
	kind kind
	a, b [sha256.Size]byte
}

// Shard routing uses the leading digest bytes; striping within a
// shard uses the second bytes so the two subdivisions stay
// independent (a shard's keys spread across all of its stripes). A
// generation's zero b makes these k.a[0] and k.a[1], the routing
// generation records have always had.
func (k key) shard(mask int) int { return int(k.a[0]^k.b[0]) & mask }
func (k key) stripe() int        { return int(k.a[1]^k.b[1]) & (idxStripes - 1) }

// less orders keys for a deterministic compacted segment: unit-test
// records by (test, answer), then generations by request key.
func (k key) less(o key) bool {
	if k.kind != o.kind {
		return k.kind < o.kind
	}
	if c := bytes.Compare(k.a[:], o.a[:]); c != 0 {
		return c < 0
	}
	return bytes.Compare(k.b[:], o.b[:]) < 0
}

const frameHeaderSize = 8

// maxPayload rejects absurd length prefixes (a torn header read as a
// huge length must not allocate gigabytes before the CRC check).
const maxPayload = 64 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// entry is one resident index entry: where a key's newest frame lives.
// n is the full frame length, header included; sum is the payload
// CRC-32C from the frame header, re-verified on every on-demand read
// and used to recognize identical re-puts without decoding anything.
type entry struct {
	src *logFile
	off int64
	n   uint32
	sum uint32
}

// read preads the frame e points at into buf (grown when too small)
// and re-verifies the length prefix and payload checksum against the
// entry before a byte of it is trusted. Every consumer of stored bytes
// — get, compaction, migration — reads through here.
func (e entry) read(buf []byte) ([]byte, error) {
	if cap(buf) < int(e.n) {
		buf = make([]byte, e.n)
	}
	buf = buf[:e.n]
	if err := e.src.pread(buf, e.off); err != nil {
		return buf, err
	}
	if binary.LittleEndian.Uint32(buf[0:4]) != e.n-frameHeaderSize ||
		binary.LittleEndian.Uint32(buf[4:8]) != e.sum ||
		crc32.Checksum(buf[frameHeaderSize:], castagnoli) != e.sum {
		return buf, errCorruptFrame
	}
	return buf, nil
}

// indexed pairs a key with its index entry: what compaction and
// migration collect and sort.
type indexed struct {
	k key
	e entry
}

// Shard-count policy: a power of two sized like memo.LRU's
// GOMAXPROCS scaling, but clamped tighter — every shard is an open
// file, and a store's worth of parallelism saturates well below a
// cache's. The count is fixed at creation and persisted in the meta
// file; an existing store always reopens with the count it was
// created with, so key→shard routing (and therefore which segment
// file owns a record) never changes under a different GOMAXPROCS.
const (
	minShards = 8
	maxShards = 64
)

// idxStripes is the per-shard index stripe count: 4 RWMutex stripes
// per shard × ≥8 shards keeps warm-read concurrency at or above the
// pre-shard store's 32 global stripes while letting each shard own
// its stripes outright.
const idxStripes = 4

// stripe is one lock's worth of a shard's offset index. n counts the
// live keys of each kind so Len/GenLen cost a lock per stripe, not a
// walk of the map.
type stripe struct {
	mu sync.RWMutex
	m  map[key]entry
	n  [numKinds]int
}

func (st *stripe) lookup(k key) (entry, bool) {
	st.mu.RLock()
	e, ok := st.m[k]
	st.mu.RUnlock()
	return e, ok
}

func (st *stripe) set(k key, e entry) {
	st.mu.Lock()
	before := len(st.m)
	st.m[k] = e
	if len(st.m) > before {
		st.n[k.kind]++
	}
	st.mu.Unlock()
}

// OpenStats describes how the last Open rebuilt the index: how many
// frames it scanned and how long the whole replay took.
type OpenStats struct {
	// ScannedFrames counts the intact frames of every segment and of
	// any legacy file, superseded ones included.
	ScannedFrames int
	// LegacyFrames counts the scanned frames whose payload is in the
	// JSON layout, which is read but no longer written; zero shows a
	// store free of them.
	LegacyFrames int
	Duration     time.Duration
}

// Store is a persistent evaluation cache sharded across per-key-range
// segment files. It is safe for concurrent use and implements
// engine.CacheStore and inference.GenStore.
type Store struct {
	path string
	segs []*segment
	mask int

	openStats OpenStats

	// compactMu serializes Compact calls (each shard's compaction also
	// takes that shard's log lock; appends to other shards proceed).
	compactMu sync.Mutex
}

// segPath names shard i's segment file.
func segPath(path string, i int) string { return fmt.Sprintf("%s.s%02d", path, i) }

// metaPath names the shard-count meta file.
func metaPath(path string) string { return path + ".shards" }

// defaultShardCount picks the shard count for a new store: the
// smallest power of two at least twice GOMAXPROCS, clamped to
// [minShards, maxShards].
func defaultShardCount() int {
	n := 1
	for n < 2*runtime.GOMAXPROCS(0) {
		n <<= 1
	}
	if n < minShards {
		n = minShards
	}
	if n > maxShards {
		n = maxShards
	}
	return n
}

// resolveShardCount determines the shard count for the store at path:
// the meta file if present, else inferred from existing segment files
// (a crash can lose the meta file but not the renamed segments), else
// the default for a fresh store. The resolved count is (re)written to
// the meta file atomically.
func resolveShardCount(path string) (int, error) {
	if data, err := os.ReadFile(metaPath(path)); err == nil {
		n, err := strconv.Atoi(strings.TrimSpace(string(data)))
		if err != nil || n < 1 || n > 1<<16 || n&(n-1) != 0 {
			return 0, fmt.Errorf("store: corrupt shard meta %s: %q", metaPath(path), strings.TrimSpace(string(data)))
		}
		return n, nil
	} else if !os.IsNotExist(err) {
		return 0, err
	}
	n := defaultShardCount()
	if inferred, ok, err := inferShardCount(path); err != nil {
		return 0, err
	} else if ok {
		n = inferred
	}
	if err := writeShardMeta(path, n); err != nil {
		return 0, err
	}
	return n, nil
}

// inferShardCount scans for existing segment files and returns the
// smallest power of two covering every index found. A name with
// anything after the index (a leftover <segment>.idx, a compaction's
// temp file) is not a segment.
func inferShardCount(path string) (int, bool, error) {
	dir := filepath.Dir(path)
	prefix := filepath.Base(path) + ".s"
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, false, nil
		}
		return 0, false, err
	}
	maxIdx := -1
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		idx, err := strconv.Atoi(name[len(prefix):])
		if err != nil || idx < 0 {
			continue
		}
		if idx > maxIdx {
			maxIdx = idx
		}
	}
	if maxIdx < 0 {
		return 0, false, nil
	}
	n := 1
	for n <= maxIdx {
		n <<= 1
	}
	if n < minShards {
		n = minShards
	}
	return n, true, nil
}

// writeShardMeta records the shard count atomically (temp + rename),
// so a crash mid-write never leaves a torn meta file.
func writeShardMeta(path string, n int) error {
	tmp := metaPath(path) + ".tmp"
	if err := os.WriteFile(tmp, []byte(strconv.Itoa(n)+"\n"), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, metaPath(path)); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// Open reads (or creates) the sharded store rooted at path, rebuilding
// the offset index for every intact record by scanning all shard
// segments in parallel. A truncated or corrupt tail in any segment —
// the signature of a crash mid-append — is dropped and that file
// truncated back to its last intact record, not treated as fatal. A
// pre-shard single-file log at path itself is migrated into the
// segments and removed.
func Open(path string) (*Store, error) {
	start := time.Now()
	n, err := resolveShardCount(path)
	if err != nil {
		return nil, err
	}
	s := &Store{
		path: path,
		mask: n - 1,
		segs: make([]*segment, n),
	}
	for i := range s.segs {
		// O_APPEND: every flush is one write syscall that the kernel
		// positions at the true end of file, so even a second process
		// appending to the same segment (one writer per store is the
		// intended deployment, but fleets misconfigure) interleaves
		// whole batches rather than corrupting them mid-frame at a
		// stale offset.
		f, err := os.OpenFile(segPath(path, i), os.O_RDWR|os.O_APPEND|os.O_CREATE, 0o644)
		if err != nil {
			s.closeFiles()
			return nil, err
		}
		s.segs[i] = newSegment(f)
	}
	// Parallel replay: one goroutine per shard, each with its own
	// reusable payload buffer, each truncating its own torn tail.
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, seg := range s.segs {
		wg.Add(1)
		go func(i int, seg *segment) {
			defer wg.Done()
			errs[i] = seg.replay(s)
		}(i, seg)
	}
	wg.Wait()
	for _, seg := range s.segs {
		s.openStats.ScannedFrames += seg.scanFrames
		s.openStats.LegacyFrames += seg.legacyFrames
	}
	err = errors.Join(errs...)
	if err == nil {
		err = s.migrateLegacy()
	}
	if err != nil {
		s.closeFiles()
		return nil, err
	}
	s.openStats.Duration = time.Since(start)
	return s, nil
}

func (s *Store) closeFiles() {
	for _, seg := range s.segs {
		if seg != nil {
			seg.lf.close()
		}
	}
}

// route resolves a key to its owning shard and index stripe.
func (s *Store) route(k key) (*segment, *stripe) {
	seg := s.segs[k.shard(s.mask)]
	return seg, &seg.idx[k.stripe()]
}

// load installs one replayed index entry in the stripe that owns its
// key. Stripe locks are taken because segment replay goroutines run
// concurrently and a misplaced record (a segment file holding a
// foreign key, e.g. hand-copied files) must still land in its owning
// shard's index, where get will look for it.
func (s *Store) load(k key, e entry) {
	_, st := s.route(k)
	st.set(k, e)
}

// migrateLegacy folds a log in the pre-shard single-file layout — a
// regular file at s.path — into the segments, then removes it. It runs
// once per Open, after segment replay, and is the only code that knows
// the old layout: it keeps the file's newest frame per key, raw-copies
// (through the CRC re-check in entry.read) those whose key no segment
// holds into their owning shards in file order, fsyncs, and only then
// deletes the file. A key a segment already holds is skipped, not
// compared: appends have only ever gone to segments since the sharded
// layout exists, so the segment record is at least as new. That rule
// also makes the migration idempotent — a crash before the delete
// leaves the file beside segments that hold some or all of its keys,
// and the next Open copies exactly the rest. A torn tail is dropped
// with the file, as it would have been truncated from it before.
func (s *Store) migrateLegacy() error {
	if fi, err := os.Stat(s.path); err != nil || !fi.Mode().IsRegular() {
		return nil
	}
	f, err := os.Open(s.path)
	if err != nil {
		return err
	}
	lf := newLogFile(f)
	defer lf.close()
	newest := make(map[key]entry)
	_, legacy, err := scanLog(f, func(k key, e entry) {
		e.src = lf
		newest[k] = e
		s.openStats.ScannedFrames++
	})
	if err != nil {
		return err
	}
	s.openStats.LegacyFrames += legacy
	var missing []indexed
	for k, e := range newest {
		_, st := s.route(k)
		if _, ok := st.lookup(k); !ok {
			missing = append(missing, indexed{k, e})
		}
	}
	sort.Slice(missing, func(i, j int) bool { return missing[i].e.off < missing[j].e.off })
	var buf []byte
	for _, m := range missing {
		if buf, err = m.e.read(buf); err != nil {
			return fmt.Errorf("store: migrate legacy log: %w", err)
		}
		seg, st := s.route(m.k)
		seg.appendWait(m.k, st, func(dst []byte) []byte { return append(dst, buf...) })
	}
	if err := s.Sync(); err != nil {
		return fmt.Errorf("store: migrate legacy log: %w", err)
	}
	return os.Remove(s.path)
}

// readBuf is a pooled frame buffer for get: a campaign reads each key
// once, so without it every read allocates its frame. The pool holds
// pointers so that Put does not allocate a slice header.
type readBuf struct{ b []byte }

var readBufs = sync.Pool{New: func() any { return new(readBuf) }}

// maxPooledBuf is the largest buffer the store keeps for reuse: a read
// buffer get hands back to readBufs, or a segment's spare batch buffer.
// One outsized output must not pin its megabytes for the life of the
// process; a larger buffer is left to the collector.
const maxPooledBuf = 64 << 10

// get is the one read path: the index entry's frame, pread from its
// segment into a pooled buffer, verified and decoded. It rides out the
// two read races: an entry pointing into a log whose handle compaction
// just swapped out (errLogClosed — re-read the refreshed entry and
// retry), and an entry installed at enqueue time whose group-commit
// batch has not hit the file yet (drain the shard once, then retry the
// pread). Anything else that keeps the frame from being read back
// intact — a frame that verifies but carries another key included — is
// a miss.
func (s *Store) get(k key) (record, bool) {
	seg, st := s.route(k)
	e, ok := st.lookup(k)
	if !ok {
		return record{}, false
	}
	rb := readBufs.Get().(*readBuf)
	defer func() {
		if cap(rb.b) <= maxPooledBuf {
			readBufs.Put(rb)
		}
	}()
	drained := false
	for {
		var err error
		if rb.b, err = e.read(rb.b); err == nil {
			got, rec, ok := decode(rb.b[frameHeaderSize:])
			if !ok || got != k {
				return record{}, false
			}
			return rec, true
		}
		if errors.Is(err, errLogClosed) {
			e2, ok := st.lookup(k)
			if !ok || e2 == e {
				// The store is closed, or the key vanished: give up.
				return record{}, false
			}
			e = e2
			continue
		}
		if drained {
			return record{}, false
		}
		// The frame may still be in the shard's pending batch (entries
		// become visible at enqueue, written at flush). Force the flush
		// and try once more.
		seg.mu.Lock()
		seg.drainLocked()
		seg.mu.Unlock()
		drained = true
	}
}

// put is the one write path for a fresh record: segment.appendWait
// encodes its frame into the shard's pending batch and returns once the
// batch is written; an identical re-record is a no-op, and append
// failures latch into Sync/Close. A payload over maxPayload is
// dropped — not written, not latched — because replay reads such a
// length prefix as a torn header and would truncate the segment there,
// taking every later record in the shard with it.
func (s *Store) put(k key, rec record) {
	if payloadSize(k, rec) > maxPayload {
		return
	}
	seg, st := s.route(k)
	seg.appendWait(k, st, func(dst []byte) []byte { return appendFrame(dst, k, rec) })
}

// Get implements engine.CacheStore: the persisted result for
// (test, answer), if any.
func (s *Store) Get(test, answer [sha256.Size]byte) (unittest.Result, bool) {
	rec, ok := s.get(key{kind: kindUnit, a: test, b: answer})
	if !ok {
		return unittest.Result{}, false
	}
	return rec.result(), true
}

// Put implements engine.CacheStore: persist one executed result.
// Errored executions (res.Err != nil) are never recorded — like the
// engine's in-memory tier, a transient outage must not be frozen into
// the cache. Put is advisory (see put): it never fails
// the evaluation that produced the result, and returns once the
// record's group-commit batch has been written.
func (s *Store) Put(test, answer [sha256.Size]byte, res unittest.Result) {
	if res.Err != nil {
		return
	}
	s.put(key{kind: kindUnit, a: test, b: answer}, unitRecord(res))
}

// GetGen implements inference.GenStore: the persisted generation for
// the given request key, if any.
func (s *Store) GetGen(gk inference.Key) (inference.Response, bool) {
	rec, ok := s.get(key{kind: kindGen, a: gk})
	if !ok {
		return inference.Response{}, false
	}
	return rec.response(), true
}

// PutGen implements inference.GenStore: persist one live generation,
// under the same advisory contract as Put.
func (s *Store) PutGen(gk inference.Key, resp inference.Response) {
	s.put(key{kind: kindGen, a: gk}, genRecord(resp))
}

func (s *Store) count(kd kind) int {
	n := 0
	for _, seg := range s.segs {
		n += seg.count(kd)
	}
	return n
}

// Len reports how many distinct unit-test keys the store holds.
func (s *Store) Len() int { return s.count(kindUnit) }

// GenLen reports how many distinct generations the store holds.
func (s *Store) GenLen() int { return s.count(kindGen) }

// Appended reports how many records this handle has appended since
// Open, across all shards — the store-side mirror of the engine's
// Executed counter.
func (s *Store) Appended() int64 {
	var n int64
	for _, seg := range s.segs {
		n += seg.appended.Load()
	}
	return n
}

// Flushes reports how many group-commit batches this handle has
// written since Open, across all shards. Appended()/Flushes() is the
// average batch size: 1 under serial traffic, climbing with per-shard
// append concurrency as each committer drains more frames per
// syscall.
func (s *Store) Flushes() int64 {
	var n int64
	for _, seg := range s.segs {
		n += seg.flushes.Load()
	}
	return n
}

// Shards reports the store's shard count.
func (s *Store) Shards() int { return len(s.segs) }

// CacheStats is always zero: the store keeps no cache. It stays only
// because bench/ still reads it, and goes when bench/'s wrappers do
// (ROADMAP.md item 6(a)).
func (s *Store) CacheStats() memo.Stats { return memo.Stats{} }

// LastOpen reports how the most recent Open rebuilt the index: scanned
// frames and wall time.
func (s *Store) LastOpen() OpenStats { return s.openStats }

// residentPerEntry estimates one index entry's resident cost: key +
// entry struct + map bucket overhead. An estimate, not a measurement —
// the stats surface reports magnitude, and the invariant that matters
// (payloads are not resident) is structural.
const residentPerEntry = 128

// ResidentBytes estimates the store's resident memory: the offset
// index, which scales with key count, never payload size.
func (s *Store) ResidentBytes() int64 {
	return int64(s.Len()+s.GenLen()) * residentPerEntry
}

// ShardStat is one shard's observable state: index sizes plus this
// handle's append/flush counters (their ratio is the shard's
// group-commit batching factor).
type ShardStat struct {
	Records     int   `json:"records"`
	Generations int   `json:"generations"`
	Appended    int64 `json:"appended"`
	Flushes     int64 `json:"flushes"`
}

// ShardStats snapshots every shard, in shard order. The snapshot is
// per-shard consistent, not cross-shard atomic — it is a monitoring
// surface, not a transaction.
func (s *Store) ShardStats() []ShardStat {
	out := make([]ShardStat, len(s.segs))
	for i, seg := range s.segs {
		out[i] = ShardStat{
			Records:     seg.count(kindUnit),
			Generations: seg.count(kindGen),
			Appended:    seg.appended.Load(),
			Flushes:     seg.flushes.Load(),
		}
	}
	return out
}

// Compact rewrites every shard to exactly one record per key — the
// newest — shedding superseded appends. Shards compact concurrently
// and independently: each rewrite goes to a temp file that atomically
// renames over that shard's segment, holding only that shard's log
// lock, so appends to other shards proceed throughout and a crash
// mid-compaction of shard k loses nothing — neither in shard k (the
// rename is atomic; the old segment stays until it succeeds) nor in
// shards ≠ k (their files are untouched).
func (s *Store) Compact() error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()

	errs := make([]error, len(s.segs))
	var wg sync.WaitGroup
	for i, seg := range s.segs {
		wg.Add(1)
		go func(i int, seg *segment) {
			defer wg.Done()
			errs[i] = seg.compact(segPath(s.path, i))
		}(i, seg)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Sync flushes pending batches and every segment to stable storage,
// and surfaces any latched append error.
func (s *Store) Sync() error {
	var first error
	for _, seg := range s.segs {
		if err := seg.sync(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close syncs and releases every segment. The Store must not be used
// after Close.
func (s *Store) Close() error {
	var first error
	for _, seg := range s.segs {
		if err := seg.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
