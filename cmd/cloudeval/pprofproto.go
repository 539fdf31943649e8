package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"

	"cloudeval/internal/stage"
)

// cpuSample is one sample of a CPU profile: its CPU time and the value
// of its stage label ("" without one).
type cpuSample struct {
	nanos int64
	stage string
}

// readCPUProfile decodes the samples of a gzipped profile.proto that
// runtime/pprof's CPU profiler wrote. It reads the few fields a layer
// ledger needs — the sample types, sample values and string labels —
// and skips the rest, stacks included.
func readCPUProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		values []uint64
		labels [][2]uint64 // string-table indices of key and value
	}
	var (
		types   []uint64 // string-table index of each sample type's name
		samples []rawSample
		strs    []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(num int, v uint64, _ []byte) error {
				if num == 1 {
					types = append(types, v)
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 2:
					s.values = appendPacked(s.values, v, b)
				case 3:
					var kv [2]uint64
					err := eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 || num == 2 {
							kv[num-1] = v
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpu := -1 // the "cpu" sample type; its unit is nanoseconds
	for i, t := range types {
		if str(t) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile has no cpu sample type")
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if cpu >= len(s.values) {
			return nil, errors.New("sample without a cpu value")
		}
		cs := cpuSample{nanos: int64(s.values[cpu])}
		for _, kv := range s.labels {
			if str(kv[0]) == stage.Key {
				cs.stage = str(kv[1])
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// eachField calls fn for every field of a protobuf message: its number
// and, by wire type, its varint value or its bytes. Fixed-width fields
// are skipped.
func eachField(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProto
		}
		b = b[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errBadProto
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errBadProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errBadProto
			}
			if err := fn(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errBadProto
			}
			b = b[4:]
		default:
			return errBadProto
		}
	}
	return nil
}

var errBadProto = errors.New("malformed profile")

// appendPacked appends a repeated varint field's values: v when it was
// written unpacked, else every varint in b.
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
