package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"
)

// errLogClosed is returned by logFile.pread once the store has been
// closed: a Get racing Close misses, and its pread never lands on a
// recycled file descriptor.
var errLogClosed = errors.New("store: log file closed")

// errCorruptFrame marks an on-demand read whose frame failed its
// length or checksum check — served as a cache miss, never a panic.
var errCorruptFrame = errors.New("store: corrupt frame")

// logFile wraps one log's *os.File behind a close guard so on-demand
// reads (Get pread) can race Close safely: pread takes the read half,
// close takes the write half, and a pread after close reports
// errLogClosed instead of touching a dead (or worse, recycled)
// descriptor.
type logFile struct {
	mu     sync.RWMutex
	f      *os.File
	closed bool
}

func newLogFile(f *os.File) *logFile { return &logFile{f: f} }

// pread fills p from offset off, failing with errLogClosed once the
// file has been closed. Short reads (a torn tail, an offset past EOF)
// surface as io errors and are treated like corruption by callers.
func (lf *logFile) pread(p []byte, off int64) error {
	lf.mu.RLock()
	defer lf.mu.RUnlock()
	if lf.closed {
		return errLogClosed
	}
	_, err := lf.f.ReadAt(p, off)
	return err
}

// close closes the underlying file exactly once, after waiting out any
// pread in flight.
func (lf *logFile) close() error {
	lf.mu.Lock()
	defer lf.mu.Unlock()
	if lf.closed {
		return nil
	}
	lf.closed = true
	return lf.f.Close()
}

// segment is one shard of the store: a key range's append-only log
// file plus its slice of the offset index. Each segment has its own
// log lock, so appends to different shards share no state at all.
type segment struct {
	idx [idxStripes]stripe

	appended atomic.Int64
	flushes  atomic.Int64

	// Open bookkeeping for the store's LastOpen stats: how many frames
	// the replay scanned, and how many of them were JSON.
	scanFrames   int
	legacyFrames int

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
	seg := &segment{lf: newLogFile(f), id: uint8(id)}
	for i := range seg.idx {
		seg.idx[i].m = make(map[uint64]entry)
	}
	return seg
}

// scanBufSize is the buffered reader scanLog reads a log through: a
// frame is a few hundred bytes, so one read(2) serves hundreds of them.
const scanBufSize = 64 << 10

// scanLog walks one log file from its start, calling apply for each
// intact frame with its key and index entry (seg unset — the caller
// knows which log it is scanning), and returns the offset of the first
// bad (or missing) frame and how many of the intact ones carried a
// JSON payload. One growable payload buffer is reused across frames,
// and payloadKey reads only the key, so a multi-gigabyte log replays
// without ever materializing its payload strings. A frame whose tag is
// unknown or whose key is malformed is bad: the scan stops there,
// exactly like a failed CRC.
func scanLog(f *os.File, apply func(k key, e entry)) (good int64, legacy int, err error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, 0, err
	}
	var off int64
	var hdr [frameHeaderSize]byte
	var payload []byte
	r := bufio.NewReaderSize(f, scanBufSize)
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			// Clean EOF or a torn header: the log ends here.
			return off, legacy, nil
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if n == 0 || n > maxPayload {
			return off, legacy, nil
		}
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(r, payload); err != nil {
			return off, legacy, nil // torn payload
		}
		if crc32.Checksum(payload, castagnoli) != sum {
			return off, legacy, nil // corrupt frame; drop it and everything after
		}
		k, isJSON, ok := payloadKey(payload)
		if !ok {
			return off, legacy, nil
		}
		if isJSON {
			legacy++
		}
		apply(k, entry{off: off, n: frameHeaderSize + n, sum: sum})
		off += frameHeaderSize + int64(n)
	}
}

// replay scans the segment's log into the store's offset index
// (routing by key, so even a misplaced record lands where get looks
// for it) and truncates the segment's torn tail.
func (seg *segment) replay(s *Store) error {
	good, legacy, err := scanLog(seg.lf.f, func(k key, e entry) {
		e.seg = seg.id
		s.load(k, e)
		seg.scanFrames++
	})
	if err != nil {
		return err
	}
	seg.legacyFrames = legacy
	if err := seg.lf.f.Truncate(good); err != nil {
		return fmt.Errorf("store: truncate torn tail: %w", err)
	}
	seg.size = good
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
