package store

import (
	"crypto/sha256"
	"encoding/binary"
	"hash/crc32"
	"time"

	"cloudeval/internal/inference"
	"cloudeval/internal/unittest"
)

// The payload codec: the one place that knows what is inside a frame's
// [len][crc32c][payload] envelope. A payload's first byte is its tag:
//
//	0x01  unit-test result: [32] test digest [32] answer digest
//	                        [8] passed (0/1) [8] exit code [8] virtual time, ns
//	                        then Output to the end of the payload
//	0x02  generation:       [32] request key
//	                        [8] prompt tokens [8] completion tokens [8] latency, ns
//	                        then Text to the end of the payload
//	'{'   a JSON payload (jsonframe.go): read, never written
//
// Integers are little-endian int64. The key is in the payload as raw
// digest bytes at fixed offsets, so a scan indexes a frame with a
// bounds check and a copy, and a read compares the frame's own key with
// the one it was asked for. Any other tag, or a payload shorter than
// its tag's fixed header, is a corrupt frame exactly like a failed CRC.
const (
	tagUnit = 0x01
	tagGen  = 0x02
	tagJSON = '{'

	numFields      = 3
	unitHeaderSize = 1 + 2*sha256.Size + 8*numFields
	genHeaderSize  = 1 + sha256.Size + 8*numFields
)

// record is a decoded payload less its key: the three fixed fields of
// the record's kind in payload order, and its Output or Text.
type record struct {
	text string
	num  [numFields]int64
}

func unitRecord(res unittest.Result) record {
	rec := record{text: res.Output, num: [numFields]int64{0, int64(res.ExitCode), int64(res.VirtualTime)}}
	if res.Passed {
		rec.num[0] = 1
	}
	return rec
}

func (rec record) result() unittest.Result {
	return unittest.Result{
		Passed:      rec.num[0] != 0,
		Output:      rec.text,
		ExitCode:    int(rec.num[1]),
		VirtualTime: time.Duration(rec.num[2]),
	}
}

func genRecord(resp inference.Response) record {
	return record{text: resp.Text, num: [numFields]int64{
		int64(resp.Usage.PromptTokens), int64(resp.Usage.CompletionTokens), int64(resp.Latency),
	}}
}

func (rec record) response() inference.Response {
	return inference.Response{
		Text:    rec.text,
		Usage:   inference.Usage{PromptTokens: int(rec.num[0]), CompletionTokens: int(rec.num[1])},
		Latency: time.Duration(rec.num[2]),
	}
}

// payloadSize is the payload length encode produces for rec under k.
func payloadSize(k key, rec record) int {
	if k.kind == kindGen {
		return genHeaderSize + len(rec.text)
	}
	return unitHeaderSize + len(rec.text)
}

// encode builds the complete frame — envelope and binary payload — for
// rec under k, in its one allocation. The bytes depend on (k, rec)
// alone, which is what lets appendFrame recognise an identical re-put
// by length and CRC.
func encode(k key, rec record) []byte {
	buf := make([]byte, frameHeaderSize+payloadSize(k, rec))
	p := buf[frameHeaderSize:]
	n := 1 + copy(p[1:], k.a[:])
	if k.kind == kindGen {
		p[0] = tagGen
	} else {
		p[0] = tagUnit
		n += copy(p[n:], k.b[:])
	}
	for _, v := range rec.num {
		binary.LittleEndian.PutUint64(p[n:], uint64(v))
		n += 8
	}
	copy(p[n:], rec.text)
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(p)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(p, castagnoli))
	return buf
}

// binaryKey reads the tag and key of a binary payload and returns what
// follows them: the fixed fields and the text.
func binaryKey(p []byte) (k key, rest []byte, ok bool) {
	if len(p) == 0 {
		return k, nil, false
	}
	switch p[0] {
	case tagUnit:
		if len(p) < unitHeaderSize {
			return k, nil, false
		}
		copy(k.a[:], p[1:])
		copy(k.b[:], p[1+sha256.Size:])
		return k, p[1+2*sha256.Size:], true
	case tagGen:
		if len(p) < genHeaderSize {
			return k, nil, false
		}
		k.kind = kindGen
		copy(k.a[:], p[1:])
		return k, p[1+sha256.Size:], true
	}
	return k, nil, false
}

// payloadKey recovers the index key of a payload whose CRC has already
// been checked, without touching its text; legacy reports a JSON
// payload. Not ok means a corrupt frame: the scan stops there.
func payloadKey(p []byte) (k key, legacy, ok bool) {
	if len(p) > 0 && p[0] == tagJSON {
		k, ok = jsonPayloadKey(p)
		return k, true, ok
	}
	k, _, ok = binaryKey(p)
	return k, false, ok
}

// decode parses a payload whose CRC has already been checked into its
// key and record. The record's text is a copy: p may be reused.
func decode(p []byte) (key, record, bool) {
	if len(p) > 0 && p[0] == tagJSON {
		return decodeJSON(p)
	}
	k, rest, ok := binaryKey(p)
	if !ok {
		return key{}, record{}, false
	}
	var rec record
	for i := range rec.num {
		rec.num[i] = int64(binary.LittleEndian.Uint64(rest[8*i:]))
	}
	rec.text = string(rest[8*numFields:])
	return k, rec, true
}
