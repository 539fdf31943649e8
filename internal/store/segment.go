package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"syscall"
)

// logFile is one log's *os.File and a read-only, shared mapping of it
// (syscall.Mmap, so the store builds on unix only). A read holds the
// read half of mu while it touches the mapping; growing the mapping
// and close take the write half, so a read never touches an unmapped
// page or a closed descriptor, and a read after close misses.
type logFile struct {
	mu     sync.RWMutex
	f      *os.File
	data   []byte // the mapping; nil while the log has never been mapped, and after close
	closed bool
}

func newLogFile(f *os.File) *logFile { return &logFile{f: f} }

// maxHeadroom bounds how far a mapping reaches past the bytes it was
// made to cover.
const maxHeadroom = 64 << 20

// mapLen is the length of a mapping that covers a log's first n bytes:
// n and half again (at most maxHeadroom more), in whole pages. The
// headroom lets a read reach frames appended after the mapping was
// made without a remap until the log has grown by half; pages past the
// end of the file cost address space, not memory.
func mapLen(n int64) int {
	n += min(n/2, maxHeadroom)
	page := int64(os.Getpagesize())
	return int((n + page - 1) / page * page)
}

// remap maps the log anew so the mapping covers its first n bytes, and
// unmaps the old mapping. The caller holds the write half of mu, or is
// Open, which no read can reach yet.
func (lf *logFile) remap(n int64) error {
	data, err := syscall.Mmap(int(lf.f.Fd()), 0, mapLen(n), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return fmt.Errorf("store: map %s: %w", lf.f.Name(), err)
	}
	if lf.data != nil {
		syscall.Munmap(lf.data)
	}
	lf.data = data
	return nil
}

// grow remaps the log to cover its first end bytes, unless a racing
// read already has or the log is closed. A failed remap leaves the old
// mapping, so the read that asked misses.
func (lf *logFile) grow(end int64) {
	lf.mu.Lock()
	defer lf.mu.Unlock()
	if !lf.closed && int64(len(lf.data)) < end {
		lf.remap(end)
	}
}

// read returns k's record from the frame e points at, verified and
// decoded where it lies in the mapping: the length prefix and CRC-32C
// must match the entry and the frame must carry k itself, or the read
// misses. Only the returned text is copied out. A frame past the
// mapped length (appended after the mapping was made) grows the
// mapping first. Another process may truncate the file under the
// mapping; the fault that raises on the lost pages is a miss too.
func (lf *logFile) read(k key, e entry) (rec record, ok bool) {
	end := e.off + int64(e.n)
	lf.mu.RLock()
	if int64(len(lf.data)) < end {
		lf.mu.RUnlock()
		lf.grow(end)
		lf.mu.RLock()
	}
	defer lf.mu.RUnlock()
	if int64(len(lf.data)) < end {
		return record{}, false // closed, or the remap failed
	}
	faulted := lf.guard(func(data []byte) {
		frame := data[e.off:end]
		if binary.LittleEndian.Uint32(frame[0:4]) != e.n-frameHeaderSize ||
			binary.LittleEndian.Uint32(frame[4:8]) != e.sum ||
			crc32.Checksum(frame[frameHeaderSize:], castagnoli) != e.sum {
			return
		}
		var got key
		got, rec, ok = decode(frame[frameHeaderSize:])
		ok = ok && got == k
	})
	if faulted || !ok {
		return record{}, false
	}
	return rec, true
}

// guard runs f on the log's mapping with debug.SetPanicOnFault set and
// reports whether a memory fault cut it short: another process
// truncated the file under the mapping. Any other panic is raised
// again.
func (lf *logFile) guard(f func(data []byte)) (faulted bool) {
	defer func(old bool) {
		debug.SetPanicOnFault(old)
		if r := recover(); r != nil {
			if _, fault := r.(interface{ Addr() uintptr }); !fault {
				panic(r)
			}
			faulted = true
		}
	}(debug.SetPanicOnFault(true))
	f(lf.data)
	return false
}

// close unmaps the log and closes its file exactly once, after waiting
// out any read in flight.
func (lf *logFile) close() error {
	lf.mu.Lock()
	defer lf.mu.Unlock()
	if lf.closed {
		return nil
	}
	lf.closed = true
	if lf.data != nil {
		syscall.Munmap(lf.data)
		lf.data = nil
	}
	return lf.f.Close()
}

// segment is one shard of the store: a key range's append-only log
// file plus its slice of the offset index. Each segment has its own
// log lock, so appends to different shards share no state at all.
type segment struct {
	idx [idxStripes]stripe

	appended atomic.Int64
	flushes  atomic.Int64

	// scanFrames is Open's bookkeeping for the store's LastOpen stats:
	// how many frames the replay scanned.
	scanFrames int

	// lf is set by newSegment and closed by close, never replaced.
	lf *logFile
	// id is the segment's index in Store.segs, what its entries hold.
	id uint8

	// mu guards the log half: the file's size, the frame buffer and
	// appendErr. Index reads never take it.
	mu sync.Mutex
	// size is the segment's end of file, where the next frame lands.
	size int64
	// buf is the frame buffer appendWait encodes into, reused from one
	// append to the next unless it grew past maxPooledBuf.
	buf []byte
	// appendErr latches the first failed append so a sick disk surfaces
	// on Sync/Close instead of being silently swallowed by the cache
	// interface.
	appendErr error
}

func newSegment(f *os.File, id int) *segment {
	return &segment{lf: newLogFile(f), id: uint8(id)}
}

// countFrames hops from frame header to frame header of a log's bytes,
// checking no CRC, and counts each binary frame in counts under the
// shard and stripe its key routes to (counts[shard*idxStripes+stripe]).
// The counts bound what replay indexes from above, superseded and
// corrupt frames included, so Open can make every stripe's map at its
// final size. Like replay, it stops at a length that runs past the end
// or an unknown tag.
func countFrames(data []byte, mask int, counts []int) {
	for len(data) >= frameHeaderSize {
		n := int(binary.LittleEndian.Uint32(data))
		if n == 0 || n > len(data)-frameHeaderSize {
			return
		}
		k, _, ok := binaryKey(data[frameHeaderSize : frameHeaderSize+n])
		if !ok {
			return
		}
		counts[k.shard(mask)*idxStripes+k.stripe()]++
		data = data[frameHeaderSize+n:]
	}
}

// mapLog maps the segment's log, unless it is empty, and counts its
// frames into counts (countFrames). It sets size to the file's size,
// which bounds what replay scans.
func (seg *segment) mapLog(mask int, counts []int) error {
	fi, err := seg.lf.f.Stat()
	if err != nil {
		return err
	}
	if seg.size = fi.Size(); seg.size == 0 {
		return nil
	}
	if err := seg.lf.remap(seg.size); err != nil {
		return err
	}
	if seg.lf.guard(func(data []byte) { countFrames(data[:seg.size], mask, counts) }) {
		return fmt.Errorf("store: %s shrank while Open read it", seg.lf.f.Name())
	}
	return nil
}

// scanLog walks a log's bytes from the start, calling apply for each
// intact frame with its key and index entry (seg unset — the caller
// knows which log it is scanning), and returns the offset of the first
// bad (or missing) frame. Frames are checked where they lie and
// binaryKey reads only the key, so a multi-gigabyte log replays without
// copying a payload. A frame whose tag is unknown or whose key is
// malformed is bad: the scan stops there, exactly like a failed CRC.
//
// An intact frame whose payload opens with '{' is in the JSON layout
// stores wrote before the binary one. Dropping it as bad would take
// every frame after it too, so scanLog fails with errJSONLayout
// instead, and the store must be deleted.
func scanLog(data []byte, apply func(k key, e entry)) (good int64, err error) {
	for int64(len(data))-good >= frameHeaderSize {
		frame := data[good:]
		n := binary.LittleEndian.Uint32(frame[0:4])
		sum := binary.LittleEndian.Uint32(frame[4:8])
		if n == 0 || n > maxPayload || int64(n) > int64(len(frame))-frameHeaderSize {
			return good, nil // a torn header or payload: the log ends here
		}
		payload := frame[frameHeaderSize : frameHeaderSize+n]
		if crc32.Checksum(payload, castagnoli) != sum {
			return good, nil // corrupt frame; drop it and everything after
		}
		if payload[0] == '{' {
			return good, errJSONLayout
		}
		k, _, ok := binaryKey(payload)
		if !ok {
			return good, nil
		}
		apply(k, entry{off: good, n: frameHeaderSize + n, sum: sum})
		good += frameHeaderSize + int64(n)
	}
	return good, nil
}

// errJSONLayout is scanLog's refusal of a JSON payload.
var errJSONLayout = errors.New("holds a frame in the JSON layout of stores written before the binary one, " +
	"which this version no longer reads: delete the store (it is a cache)")

// replay scans the segment's mapped log, up to the size mapLog found,
// into the store's offset index (routing by key, so even a misplaced
// record lands where get looks for it), and sets size to the end of
// its last intact frame; trimTail cuts the file there once every
// segment has replayed.
func (seg *segment) replay(s *Store) error {
	var good int64
	var scanErr error
	if seg.lf.guard(func(data []byte) {
		good, scanErr = scanLog(data[:seg.size], func(k key, e entry) {
			e.seg = seg.id
			s.load(k, e)
			seg.scanFrames++
		})
	}) {
		return fmt.Errorf("store: %s shrank while Open read it", seg.lf.f.Name())
	}
	if scanErr != nil {
		return fmt.Errorf("store: %s %w", seg.lf.f.Name(), scanErr)
	}
	seg.size = good
	return nil
}

// trimTail truncates the segment's torn tail, past the size replay
// left. The mapping outlives the truncation: it already reaches past
// the new end, where appends land.
func (seg *segment) trimTail() error {
	if err := seg.lf.f.Truncate(seg.size); err != nil {
		return fmt.Errorf("store: truncate torn tail: %w", err)
	}
	return nil
}

// appendWait appends one frame under k — enc writes it onto the slice
// it is given — with one write syscall under the segment's log lock,
// and returns once the write has completed.
//
// A frame whose length and CRC st already holds for k is an identical
// re-record (encoding is deterministic): nothing is written. Otherwise
// k's index entry is set only after the write succeeds, so an entry
// always points at bytes already in the file.
func (seg *segment) appendWait(k key, st *stripe, enc func(dst []byte) []byte) {
	seg.mu.Lock()
	defer seg.mu.Unlock()
	if seg.appendErr != nil {
		// The log is broken (a failed append): don't pretend further
		// appends persist.
		return
	}
	frame := enc(seg.buf[:0])
	if cap(frame) <= maxPooledBuf {
		seg.buf = frame
	} else {
		seg.buf = nil
	}
	n, sum := uint32(len(frame)), binary.LittleEndian.Uint32(frame[4:8])
	// The slot found may belong to another key with k's fingerprint
	// (get's collision rule). Its frame differs from k's — each frame
	// carries its own key — so length and CRC tell them apart but for a
	// 2⁻³² chance on top of the collision's, and even then k only keeps
	// missing: the frame the slot points at is still not k's.
	if old, ok := st.lookup(k); ok && old.n == n && old.sum == sum {
		return
	}
	// O_APPEND places the write atomically at the end of file, and the
	// frame's checksum catches a tear on the next Open.
	if _, err := seg.lf.f.Write(frame); err != nil {
		seg.appendErr = fmt.Errorf("store: append: %w", err)
		return
	}
	st.set(k, entry{off: seg.size, n: n, sum: sum, seg: seg.id})
	seg.size += int64(n)
	seg.appended.Add(1)
	seg.flushes.Add(1)
}

// count reports how many distinct keys of one kind the shard holds.
func (seg *segment) count(kd kind) int {
	n := 0
	for i := range seg.idx {
		st := &seg.idx[i]
		st.mu.RLock()
		n += st.n[kd]
		st.mu.RUnlock()
	}
	return n
}

// sync flushes the segment to stable storage, and surfaces any latched
// append error.
func (seg *segment) sync() error {
	seg.mu.Lock()
	defer seg.mu.Unlock()
	if seg.appendErr != nil {
		return seg.appendErr
	}
	return seg.lf.f.Sync()
}

// close syncs and releases the segment.
func (seg *segment) close() error {
	seg.mu.Lock()
	defer seg.mu.Unlock()
	syncErr := seg.lf.f.Sync()
	closeErr := seg.lf.close()
	if seg.appendErr != nil {
		return seg.appendErr
	}
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}
