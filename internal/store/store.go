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
// One index, one get and one put serve every kind; Get/Put/GetGen/PutGen
// only convert records to and from unittest.Result and
// inference.Response, and the payload codec (codec.go: appendFrame for
// put, payloadKey for the scan, decode for get) is the only code that
// knows what a payload looks like. The kind is part of the key
// everywhere a key is used (the frame whole, the index fingerprint), so
// the same 32 bytes used as a generation key and as a unit-test digest
// never alias.
//
// # Sharded layout
//
// The store is partitioned into N key-range shards, N a power of two:
// a key's leading digest byte selects its shard, and each shard owns
// its own segment file <path>.sNN, its own log lock and frame buffer,
// and its own index stripes. Concurrent Puts to different shards land
// on independent files under independent locks; Open replays all
// segments in parallel (one goroutine and one reusable payload buffer
// per shard). The segment files are the only record of N: Open takes
// the smallest power of two covering the highest segment index on
// disk, so routing never changes for an existing store, and picks a
// default from GOMAXPROCS only when there is no segment yet. A
// <path>.shards meta file an earlier version wrote is neither read nor
// removed.
//
// A regular file at <path> itself is a log in the pre-shard
// single-file layout. Open refuses it before creating anything.
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
// a segment may hold both, and a JSON frame lives until its key is
// re-recorded with different content.
// Any other first byte, or a binary payload shorter than its fixed
// header, is a corrupt frame exactly like a failed checksum.
// OpenStats.LegacyFrames counts the JSON frames an Open scanned.
//
// Writes are crash-safe by construction: a record torn by a crash or a
// truncated copy fails its length or checksum check, and Open drops
// everything from the first bad frame onward (that file's tail)
// instead of failing — a torn tail in shard k loses nothing in shards
// ≠ k. Each log is append-only and never rewritten — a re-recorded
// key simply appends a newer record, and the newest record per key
// wins on replay. Nothing compacts a log: a campaign records each key
// once (an identical re-put appends nothing), so a log holds one frame
// per key, and a store made stale by a change to what produced its
// records is deleted whole, not rewritten. A payload may not exceed
// maxPayload (64 MiB): replay reads a larger length prefix as a torn
// header, so put refuses to write one.
//
// # Concurrency and durability
//
// Per-shard indexes are striped behind RWMutexes, so warm-store reads
// never contend with appends or each other. An append holds its
// shard's log lock while it encodes the frame into the shard's reused
// buffer and writes it with one write syscall; the index entry is set
// only after the write, so every entry points at bytes already in the
// file. Puts to one shard serialize on its lock; Puts to different
// shards do not meet.
//
// The durability contract, precisely: a returned Put/PutGen means its
// frame completed a write(2) — the frame is in the
// kernel's page cache, visible to every reader of the file and safe
// from a crash of this process, but not from a power loss. Only Sync
// and Close fsync a segment. A crash mid-write leaves a torn tail that
// the next Open truncates to the last intact frame.
//
// # Out-of-core index
//
// The resident index holds no payloads and no keys: each stripe maps a
// key's 64-bit fingerprint (key.fingerprint: digest bytes 8–15, which
// SHA-256 has already made uniform, mixed with the kind) to a 24-byte
// {offset, frame length, payload CRC, segment number, kind} entry.
// Neither half holds a pointer, so the garbage collector never scans
// the maps' slots, and resident cost per record is ~56 bytes (48–70 as
// the maps grow) regardless of how large its output or response text
// is. A read preads the frame on demand into a pooled buffer,
// re-verifies its length and checksum against the entry, decodes it
// and checks that the key inside the frame is the key asked for
// (anything else is a miss). Nothing decoded is kept: the engine's and
// the dispatcher's memo.LRUs above the store already hold what a
// process reads twice, so RSS is bounded by index size, not corpus
// size, and a read allocates only the text it returns.
//
// The index only locates a record; the frame is the authority on whose
// record it is. Two keys of one shard and stripe whose fingerprints
// collide share a slot, and the newest put or replayed frame holds it:
// the other key reads a frame carrying the wrong key and misses, so a
// collision costs a re-execution, never a wrong record. Among N
// records one is about N²/2⁶⁵ likely — ~3·10⁻⁸ at a million.
//
// Open rebuilds the index by scanning every segment through a buffered
// reader: per frame a checksum, a bounds check and a copy of the key
// from its fixed offsets. A Table 4 campaign store (5,736 results +
// 13,195 generations, 6 MB) opens in about 7 ms on a 2-vCPU box, most
// of it building the index maps rather than reading frames; with whole
// keys in the maps the same box took 12–18 ms, and 43 ms when every
// frame was JSON.
//
// Open neither reads nor deletes the index sidecars (<segment>.idx)
// earlier versions wrote beside their segments.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
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

// key addresses one record: a and b are (test digest, answer digest)
// for a unit-test result and (request key, zero) for a generation. A
// frame carries its key whole; the index keeps only its fingerprint.
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

// kindSalt separates the fingerprints of a generation and a unit-test
// result whose digests agree where the fingerprint reads them.
const kindSalt = 0x9e3779b97f4a7c15

// fingerprint is k's index key: bytes 8–15 of both digests, which
// SHA-256 has already made uniform and neither routing byte (0 for the
// shard, 1 for the stripe) touches, with the kind mixed in. Nothing is
// hashed. The rotation keeps (x, y) and (y, x) apart. Two keys that
// share shard, stripe and fingerprint share one index slot; see get.
func (k key) fingerprint() uint64 {
	a := binary.LittleEndian.Uint64(k.a[8:16])
	b := binary.LittleEndian.Uint64(k.b[8:16])
	return a ^ bits.RotateLeft64(b, 32) ^ uint64(k.kind)*kindSalt
}

const frameHeaderSize = 8

// maxPayload rejects absurd length prefixes (a torn header read as a
// huge length must not allocate gigabytes before the CRC check).
const maxPayload = 64 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// entry is one resident index entry: where a key's newest frame lives.
// seg is the index in Store.segs of the segment holding the frame
// (its key's own shard unless the file was hand-copied); n is the full
// frame length, header included; sum is the payload CRC-32C from the
// frame header, re-verified on every on-demand read and used to
// recognize identical re-puts without decoding anything; kind is the
// kind of the key that set the entry, for the stripe's counters. An
// entry holds no pointer, so the garbage collector never scans an
// index map's slots (TestIndexEntryHoldsNoPointers).
type entry struct {
	off  int64
	n    uint32
	sum  uint32
	seg  uint8
	kind kind
}

// read preads the frame e points at from lf into buf (grown when too
// small) and re-verifies the length prefix and payload checksum
// against the entry before a byte of it is trusted.
func (e entry) read(lf *logFile, buf []byte) ([]byte, error) {
	if cap(buf) < int(e.n) {
		buf = make([]byte, e.n)
	}
	buf = buf[:e.n]
	if err := lf.pread(buf, e.off); err != nil {
		return buf, err
	}
	if binary.LittleEndian.Uint32(buf[0:4]) != e.n-frameHeaderSize ||
		binary.LittleEndian.Uint32(buf[4:8]) != e.sum ||
		crc32.Checksum(buf[frameHeaderSize:], castagnoli) != e.sum {
		return buf, errCorruptFrame
	}
	return buf, nil
}

// Shard-count policy: a power of two sized like memo.LRU's
// GOMAXPROCS scaling, but clamped tighter — every shard is an open
// file, and a store's worth of parallelism saturates well below a
// cache's. The count is fixed at creation by the segment files Open
// creates; an existing store always reopens with the count its files
// give, so key→shard routing (and therefore which segment file owns a
// record) never changes under a different GOMAXPROCS.
const (
	minShards = 8
	maxShards = 64
)

// idxStripes is the per-shard index stripe count: 4 RWMutex stripes
// per shard × ≥8 shards keeps warm-read concurrency at or above the
// pre-shard store's 32 global stripes while letting each shard own
// its stripes outright.
const idxStripes = 4

// stripe is one lock's worth of a shard's offset index, keyed by
// fingerprint. n counts the slots holding each kind so Len/GenLen cost
// a lock per stripe, not a walk of the map.
type stripe struct {
	mu sync.RWMutex
	m  map[uint64]entry
	n  [numKinds]int
}

func (st *stripe) lookup(k key) (entry, bool) {
	st.mu.RLock()
	e, ok := st.m[k.fingerprint()]
	st.mu.RUnlock()
	return e, ok
}

// set points k's slot at e. A slot another key left behind (a
// fingerprint collision) is taken over, and its count moves to k's
// kind, so n never exceeds the distinct keys set nor drops below zero.
func (st *stripe) set(k key, e entry) {
	e.kind = k.kind
	fp := k.fingerprint()
	st.mu.Lock()
	if old, ok := st.m[fp]; ok {
		st.n[old.kind]--
	}
	st.m[fp] = e
	st.n[e.kind]++
	st.mu.Unlock()
}

// OpenStats describes how the last Open rebuilt the index: how many
// frames it scanned and how long the whole replay took.
type OpenStats struct {
	// ScannedFrames counts the intact frames of every segment,
	// superseded ones included.
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
	segs []*segment
	mask int

	openStats OpenStats
}

// segPath names shard i's segment file.
func segPath(path string, i int) string { return fmt.Sprintf("%s.s%02d", path, i) }

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

// inferShardCount lists the segment files beside path and returns the
// smallest power of two covering every index found. Only a name segPath
// writes counts: two ASCII digits with an index below maxShards. Any
// other name (a <segment>.idx an earlier version left behind, a stray
// <path>.s100 or <path>.s+1) is not a segment.
func inferShardCount(path string) (int, bool, error) {
	prefix := filepath.Base(path) + ".s"
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		if os.IsNotExist(err) {
			return 0, false, nil
		}
		return 0, false, err
	}
	maxIdx := -1
	for _, e := range entries {
		name, ok := strings.CutPrefix(e.Name(), prefix)
		if !ok || len(name) != 2 || name[0] < '0' || name[0] > '9' || name[1] < '0' || name[1] > '9' {
			continue
		}
		if idx := int(name[0]-'0')*10 + int(name[1]-'0'); idx < maxShards && idx > maxIdx {
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
	return n, true, nil
}

// Open reads (or creates) the sharded store rooted at path, rebuilding
// the offset index for every intact record by scanning all shard
// segments in parallel. A truncated or corrupt tail in any segment —
// the signature of a crash mid-append — is dropped and that file
// truncated back to its last intact record, not treated as fatal.
//
// A regular file at path itself is a log in the pre-shard single-file
// layout: Open fails before creating anything and leaves the file as
// it was.
func Open(path string) (*Store, error) {
	start := time.Now()
	if fi, err := os.Stat(path); err == nil && fi.Mode().IsRegular() {
		return nil, fmt.Errorf("store: %s is a single-file log from before the sharded layout, which this version no longer reads: "+
			"open it once with an older build to migrate it, or delete it (the store is a cache)", path)
	}
	n, ok, err := inferShardCount(path)
	if err != nil {
		return nil, err
	}
	if !ok {
		n = defaultShardCount()
	}
	s := &Store{
		mask: n - 1,
		segs: make([]*segment, n),
	}
	for i := range s.segs {
		// O_APPEND: every append is one write syscall that the kernel
		// positions at the true end of file, so even a second process
		// appending to the same segment (one writer per store is the
		// intended deployment, but fleets misconfigure) interleaves
		// whole frames rather than corrupting them mid-frame at a
		// stale offset.
		f, err := os.OpenFile(segPath(path, i), os.O_RDWR|os.O_APPEND|os.O_CREATE, 0o644)
		if err != nil {
			s.closeFiles()
			return nil, err
		}
		s.segs[i] = newSegment(f, i)
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
	if err := errors.Join(errs...); err != nil {
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

// readBuf is a pooled frame buffer for get: a campaign reads each key
// once, so without it every read allocates its frame. The pool holds
// pointers so that Put does not allocate a slice header.
type readBuf struct{ b []byte }

var readBufs = sync.Pool{New: func() any { return new(readBuf) }}

// maxPooledBuf is the largest buffer the store keeps for reuse: a read
// buffer get hands back to readBufs, or a segment's frame buffer.
// One outsized output must not pin its megabytes for the life of the
// process; a larger buffer is left to the collector.
const maxPooledBuf = 64 << 10

// get is the one read path: the index entry's frame, pread from its
// segment into a pooled buffer, verified and decoded. Anything that
// keeps the frame from being read back intact — a closed store, or a
// frame that verifies but carries another key — is a miss. That key
// check is what makes a fingerprint collision a miss rather than a
// wrong record: the frame, not the index, says whose record it is.
func (s *Store) get(k key) (record, bool) {
	_, st := s.route(k)
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
	var err error
	if rb.b, err = e.read(s.segs[e.seg].lf, rb.b); err != nil {
		return record{}, false
	}
	got, rec, ok := decode(rb.b[frameHeaderSize:])
	if !ok || got != k {
		return record{}, false
	}
	return rec, true
}

// put is the one write path for a fresh record: segment.appendWait
// encodes its frame into the shard's buffer and returns once the frame
// is written; an identical re-record is a no-op, and append
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
// record's frame has been written.
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

// Flushes reports how many write syscalls this handle has made to
// append frames since Open, across all shards. Each frame is its own
// write, so it equals Appended() and Appended()/Flushes() reads 1.
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

// residentPerEntry is one record's share of the index heap: an 8-byte
// fingerprint, a 24-byte entry and the map's control bytes and empty
// slots. Measured on Go 1.24 after an Open and a collection, it is
// 48–70 bytes: the maps double in steps, so the share falls as a store
// fills and jumps when they grow. 56 sits within 25 % of the whole
// range (TestResidentBytesTracksHeap holds it at 100k records).
const residentPerEntry = 56

// ResidentBytes estimates the store's resident memory: the offset
// index, which scales with key count, never payload size.
func (s *Store) ResidentBytes() int64 {
	return int64(s.Len()+s.GenLen()) * residentPerEntry
}

// ShardStat is one shard's observable state: index sizes plus this
// handle's append and write-syscall counters (their ratio is frames
// per write, 1 while each frame is its own write).
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

// Sync flushes every segment to stable storage, and surfaces any
// latched append error.
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
