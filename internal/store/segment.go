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
// file plus its slice of the offset index. Each segment carries its
// own group-commit machinery — pending buffer, batch sequencing,
// committer election — so appends to different shards batch and flush
// with no shared state at all.
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

	// mu guards the log half: the logical size, the group-commit
	// pending buffer and its batch/flush bookkeeping, and appendErr.
	// Index reads never take it.
	mu      sync.Mutex
	flushed sync.Cond // signaled whenever flushedBatch advances
	// size is the segment's logical end: file length plus enqueued but
	// not yet flushed bytes. Frames are assigned their offsets here, at
	// enqueue time — batches flush strictly in order, so the logical
	// end is exactly where the next frame will land.
	size int64
	// pending accumulates encoded frames for the batch curBatch;
	// flushedBatch is the highest batch written. A writer's frames
	// have reached the file exactly when flushedBatch has reached the
	// batch it enqueued into. spare is the last written buffer, the
	// next pending: no buffer is refilled while its write is in flight.
	pending      []byte
	spare        []byte
	curBatch     uint64
	flushedBatch uint64
	flushing     bool
	// appendErr latches the first failed append so a sick disk surfaces
	// on Sync/Close instead of being silently swallowed by the cache
	// interface.
	appendErr error
}

func newSegment(f *os.File) *segment {
	seg := &segment{lf: newLogFile(f), curBatch: 1}
	seg.flushed.L = &seg.mu
	for i := range seg.idx {
		seg.idx[i].m = make(map[key]entry)
	}
	return seg
}

// scanBufSize is the buffered reader scanLog reads a log through: a
// frame is a few hundred bytes, so one read(2) serves hundreds of them.
const scanBufSize = 64 << 10

// scanLog walks one log file from its start, calling apply for each
// intact frame with its key and index entry (src unset — the caller
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
		e.src = seg.lf
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
// it is given — to the segment's pending group-commit batch, and blocks
// until that batch has been written, counting the frame in appended if
// the write succeeded. The first writer to find no flush in progress
// becomes the committer: it drains the whole pending buffer in a single
// write syscall, then releases every writer it carried; writers
// arriving mid-flush accumulate the next batch.
//
// A frame whose length and CRC st already holds for k is an identical
// re-record (encoding is deterministic): it is cut off again and the log
// does not grow. Otherwise k's index entry is set now, under seg.mu,
// so a get that finds it before the batch is written drains the shard
// and reads it back.
func (seg *segment) appendWait(k key, st *stripe, enc func(dst []byte) []byte) {
	seg.mu.Lock()
	defer seg.mu.Unlock()
	if seg.appendErr != nil {
		// The log is broken (a failed append): don't pretend further
		// appends persist.
		return
	}
	start := len(seg.pending)
	seg.pending = enc(seg.pending)
	frame := seg.pending[start:]
	n, sum := uint32(len(frame)), binary.LittleEndian.Uint32(frame[4:8])
	if old, ok := st.lookup(k); ok && old.n == n && old.sum == sum {
		seg.pending = seg.pending[:start]
		return
	}
	st.set(k, entry{src: seg.lf, off: seg.size, n: n, sum: sum})
	seg.size += int64(n)
	myBatch := seg.curBatch
	for {
		if seg.flushedBatch >= myBatch {
			if seg.appendErr == nil {
				seg.appended.Add(1)
			}
			return
		}
		if !seg.flushing {
			seg.flushBatchLocked()
			continue
		}
		seg.flushed.Wait()
	}
}

// flushBatchLocked writes the whole pending buffer as one syscall and
// advances flushedBatch past every frame it carried. Callers hold
// seg.mu; the lock is dropped for the write itself so concurrent
// writers keep enqueueing the next batch, into the spare buffer; the
// written one becomes the next spare unless it grew past maxPooledBuf.
func (seg *segment) flushBatchLocked() {
	batch := seg.curBatch
	buf := seg.pending
	f := seg.lf.f
	seg.pending, seg.spare = seg.spare[:0], nil
	seg.curBatch++
	seg.flushing = true
	seg.mu.Unlock()
	// One write syscall per batch: O_APPEND places it atomically at
	// the end of file, and each frame's checksum still catches a tear
	// inside the batch on the next Open.
	_, werr := f.Write(buf)
	seg.mu.Lock()
	if cap(buf) <= maxPooledBuf {
		seg.spare = buf
	}
	seg.flushing = false
	seg.flushedBatch = batch
	seg.flushes.Add(1)
	if werr != nil && seg.appendErr == nil {
		seg.appendErr = fmt.Errorf("store: append: %w", werr)
	}
	seg.flushed.Broadcast()
}

// drainLocked flushes until no batch is pending or in flight. Callers
// hold seg.mu.
func (seg *segment) drainLocked() {
	for seg.flushing || len(seg.pending) > 0 {
		if !seg.flushing {
			seg.flushBatchLocked()
			continue
		}
		seg.flushed.Wait()
	}
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

// sync flushes pending batches and the segment to stable storage, and
// surfaces any latched append error.
func (seg *segment) sync() error {
	seg.mu.Lock()
	defer seg.mu.Unlock()
	seg.drainLocked()
	if seg.appendErr != nil {
		return seg.appendErr
	}
	return seg.lf.f.Sync()
}

// close syncs and releases the segment.
func (seg *segment) close() error {
	seg.mu.Lock()
	defer seg.mu.Unlock()
	seg.drainLocked()
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
