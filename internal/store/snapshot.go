package store

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
)

// Index-snapshot sidecar (<segment>.idx): the shard's offset index,
// serialized at the end of a successful Compact so the next Open can
// load it and scan only the frames appended afterwards. The sidecar is
// pure acceleration — it holds offsets and checksums, never payloads —
// and Open trusts it only after full validation: magic, version, a
// trailing CRC-32C over everything before it, a recorded segment byte
// length no longer than the file on disk, and every entry of a known
// kind and in bounds. Anything less falls back to the frame-by-frame
// scan, which reproduces byte-identical state from the segment alone.
//
// Layout (all integers little-endian):
//
//	[6]  magic "CEVIDX"
//	[2]  version (currently 2)
//	[8]  segLen: segment byte length the index covers
//	[4]  entry count
//	then per entry (81 bytes), one shape for every record kind:
//	     [1] kind  [32] key a  [32] key b  [8] offset  [4] frame length  [4] payload CRC
//	[4]  CRC-32C of everything above
//
// Version 1 split unit-test and generation entries into two arrays
// with two shapes. It has no reader: a v1 sidecar fails the version
// check like any unknown version, the shard is scanned, and the next
// Compact replaces it.
const (
	snapMagic   = "CEVIDX"
	snapVersion = 2

	snapHeaderSize = 6 + 2 + 8 + 4
	snapEntrySize  = 1 + 32 + 32 + 8 + 4 + 4
)

// errBadSnapshot covers every way a sidecar can fail validation —
// corrupt, truncated, stale, wrong version. Callers treat them all the
// same: ignore the sidecar, scan the segment.
var errBadSnapshot = errors.New("store: invalid index sidecar")

// snapshot is a sidecar's content: the index entries (src unset — the
// loader points them at the segment it opened) for the first segLen
// bytes of the segment.
type snapshot struct {
	segLen  int64
	entries []indexed
}

// readSnapshot loads the sidecar at path and validates it against a
// segment of segSize bytes; any error means "scan instead".
func readSnapshot(path string, segSize int64) (*snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseSnapshot(data, segSize)
}

// parseSnapshot fully validates sidecar bytes against a segment of
// segSize bytes. Any defect — bad magic, unknown version, checksum
// mismatch, a recorded length exceeding the segment (the segment was
// truncated or torn after the snapshot), an unknown kind or an
// out-of-bounds entry — returns errBadSnapshot.
func parseSnapshot(data []byte, segSize int64) (*snapshot, error) {
	if len(data) < snapHeaderSize+4 {
		return nil, errBadSnapshot
	}
	body := data[:len(data)-4]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(data[len(data)-4:]) {
		return nil, errBadSnapshot
	}
	if string(body[:6]) != snapMagic {
		return nil, errBadSnapshot
	}
	if binary.LittleEndian.Uint16(body[6:8]) != snapVersion {
		return nil, errBadSnapshot
	}
	segLen := int64(binary.LittleEndian.Uint64(body[8:16]))
	if segLen < 0 || segLen > segSize {
		// Stale: the segment no longer contains the bytes this index
		// describes (a tear or truncation behind the snapshot's back).
		return nil, errBadSnapshot
	}
	count := int64(binary.LittleEndian.Uint32(body[16:20]))
	if int64(len(body)) != snapHeaderSize+count*snapEntrySize {
		return nil, errBadSnapshot
	}
	snap := &snapshot{segLen: segLen, entries: make([]indexed, count)}
	p := body[snapHeaderSize:]
	for i := range snap.entries {
		k, e := &snap.entries[i].k, &snap.entries[i].e
		k.kind = kind(p[0])
		copy(k.a[:], p[1:33])
		copy(k.b[:], p[33:65])
		e.off = int64(binary.LittleEndian.Uint64(p[65:73]))
		e.n = binary.LittleEndian.Uint32(p[73:77])
		e.sum = binary.LittleEndian.Uint32(p[77:81])
		if k.kind >= numKinds || e.off < 0 || e.n <= frameHeaderSize || e.off > segLen-int64(e.n) {
			return nil, errBadSnapshot
		}
		p = p[snapEntrySize:]
	}
	return snap, nil
}

// marshal serializes the sidecar, trailing checksum included.
func (snap *snapshot) marshal() []byte {
	buf := make([]byte, 0, snapHeaderSize+len(snap.entries)*snapEntrySize+4)
	buf = append(buf, snapMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, snapVersion)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(snap.segLen))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(snap.entries)))
	for _, ie := range snap.entries {
		buf = append(buf, byte(ie.k.kind))
		buf = append(buf, ie.k.a[:]...)
		buf = append(buf, ie.k.b[:]...)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(ie.e.off))
		buf = binary.LittleEndian.AppendUint32(buf, ie.e.n)
		buf = binary.LittleEndian.AppendUint32(buf, ie.e.sum)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

// writeSnapshot serializes the sidecar atomically: temp file, fsync,
// rename. A crash mid-write leaves either the previous sidecar state
// or a temp file nothing reads — never a half-written .idx.
func writeSnapshot(path string, snap *snapshot) error {
	buf := snap.marshal()
	tmpPath := path + ".tmp"
	tmp, err := os.OpenFile(tmpPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpPath)
		return err
	}
	if err := os.Rename(tmpPath, path); err != nil {
		os.Remove(tmpPath)
		return err
	}
	return nil
}
