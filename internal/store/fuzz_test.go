package store

// The store's parsers of bytes it did not necessarily write — the
// segment scanner behind Open and the payload codec under it — under
// native fuzzing, plus the golden frames that pin the on-disk frame
// format.
// The seeds alone run in `go test`; CI fuzzes past them for a few
// seconds each.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cloudeval/internal/inference"
	"cloudeval/internal/unittest"
)

// One frame of each kind for the fixed inputs of putGolden, in both
// payload layouts. The binary pair is what Put and PutGen write:
// [LE payload length][LE CRC-32C][tag, key digests, three LE int64,
// text]. The JSON pair is what stores wrote before the binary layout —
// fields in declaration order, zero values omitted — and Open refuses
// a store holding it (TestJSONLayoutStoreRefused).
const (
	goldenUnitFrame = "6a000000e3459316018d35e3fad54a51c8559d3723f4904e4a9a74ed73d5445e670ef2fe88074b70b47963e6b7d677f6e80a43adf81f7a779334860f2a8f83ed18f09b7123105ac2090100000000000000030000000000000000046bf414000000756e69745f746573745f7061737365640a"
	goldenGenFrame  = "52000000000c8531029456bdfa12ea76959c94a3572f5d91c73d838622df0a8d9b4e815c276c6b788078000000000000002200000000000000d30296490000000061706956657273696f6e3a2076310a6b696e643a20506f640a"

	goldenJSONUnitFrame = "e300000010f124347b2274657374223a2238643335653366616435346135316338353539643337323366343930346534613961373465643733643534343565363730656632666538383037346237306234222c22616e73776572223a2237393633653662376436373766366538306134336164663831663761373739333334383630663261386638336564313866303962373132333130356163323039222c22706173736564223a747275652c226f7574707574223a22756e69745f746573745f7061737365645c6e222c22657869745f636f6465223a332c227669727475616c5f73656373223a39307d"
	goldenJSONGenFrame  = "bf0000008247c4ad7b226b696e64223a2267656e222c2267656e223a2239343536626466613132656137363935396339346133353732663564393163373364383338363232646630613864396234653831356332373663366237383830222c2274657874223a2261706956657273696f6e3a2076315c6e6b696e643a20506f645c6e222c2270726f6d70745f746f6b656e73223a3132302c22636f6d706c6574696f6e5f746f6b656e73223a33342c226c6174656e63795f6e73223a313233343536373839317d"
)

func mustUnhex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// The two golden inputs.
var (
	goldenTest, goldenAnswer = sha256.Sum256([]byte("echo unit_test_passed")), sha256.Sum256([]byte("kind: Pod"))
	goldenResult             = unittest.Result{Passed: true, Output: "unit_test_passed\n", ExitCode: 3, VirtualTime: 90 * time.Second}

	goldenGenKey   = inference.Key(sha256.Sum256([]byte("req-1")))
	goldenResponse = inference.Response{
		Text:    "apiVersion: v1\nkind: Pod\n",
		Usage:   inference.Usage{PromptTokens: 120, CompletionTokens: 34},
		Latency: 1234567891 * time.Nanosecond,
	}
)

// putGolden records the two golden inputs.
func putGolden(s *Store) {
	s.Put(goldenTest, goldenAnswer, goldenResult)
	s.PutGen(goldenGenKey, goldenResponse)
}

// openOneShard opens a one-shard store whose only segment holds data:
// segment 0 is the top segment file, so Open infers one shard.
func openOneShard(t testing.TB, data []byte) (*Store, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "oneshard")
	if err := os.WriteFile(segPath(path, 0), data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s, path
}

// nonEmptyFiles returns the contents of every non-empty file matching
// pattern, in name order.
func nonEmptyFiles(t testing.TB, pattern string) [][]byte {
	t.Helper()
	names, err := filepath.Glob(pattern)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) > 0 {
			out = append(out, data)
		}
	}
	return out
}

// TestGoldenFrames pins the frame bytes in both directions. Written:
// what Put and PutGen write for the fixed inputs is the golden hex,
// byte for byte, so identical re-puts stay recognizable by length +
// CRC and a later reader knows exactly what it must accept. Read: the
// golden frames placed raw in a segment open and return the same fixed
// inputs.
func TestGoldenFrames(t *testing.T) {
	path := filepath.Join(t.TempDir(), "golden")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	putGolden(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, seg := range nonEmptyFiles(t, path+".s[0-9][0-9]") {
		for len(seg) > 0 {
			n := frameHeaderSize + int(binary.LittleEndian.Uint32(seg))
			got[hex.EncodeToString(seg[:n])] = true
			seg = seg[n:]
		}
	}
	if len(got) != 2 || !got[goldenUnitFrame] || !got[goldenGenFrame] {
		t.Fatalf("segments hold frames %v, want the two golden frames", got)
	}

	t.Run("read/binary", func(t *testing.T) {
		s, _ := openOneShard(t, append(mustUnhex(t, goldenUnitFrame), mustUnhex(t, goldenGenFrame)...))
		defer s.Close()
		if st := s.LastOpen(); st.ScannedFrames != 2 {
			t.Fatalf("LastOpen = %+v, want 2 scanned frames", st)
		}
		if got, ok := s.Get(goldenTest, goldenAnswer); !ok || got != goldenResult {
			t.Fatalf("Get = %+v, %v; want %+v", got, ok, goldenResult)
		}
		if got, ok := s.GetGen(goldenGenKey); !ok || got != goldenResponse {
			t.Fatalf("GetGen = %+v, %v; want %+v", got, ok, goldenResponse)
		}
	})
}

// segmentSums returns the sha256 of every segment file of the store at
// path, by name.
func segmentSums(t testing.TB, path string) map[string][sha256.Size]byte {
	t.Helper()
	names, err := filepath.Glob(path + ".s[0-9][0-9]")
	if err != nil {
		t.Fatal(err)
	}
	sums := make(map[string][sha256.Size]byte, len(names))
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		sums[name] = sha256.Sum256(data)
	}
	return sums
}

// TestJSONLayoutStoreRefused: a store holding an intact frame in the
// JSON layout of stores written before the binary one fails Open,
// which names the segment file holding it, and leaves every segment
// file byte for byte as it was. Dropping the frame as a torn tail
// instead would cut every binary frame after it, so the frame refuses
// the store wherever it lies: alone, after a binary frame, or in one
// shard of many, the others holding torn tails Open would otherwise
// cut.
func TestJSONLayoutStoreRefused(t *testing.T) {
	unit, gen := mustUnhex(t, goldenUnitFrame), mustUnhex(t, goldenGenFrame)
	jsonUnit, jsonGen := mustUnhex(t, goldenJSONUnitFrame), mustUnhex(t, goldenJSONGenFrame)
	for _, tc := range []struct {
		name string
		segs [][]byte // segment i's bytes
		bad  int      // the segment holding the JSON frame
	}{
		{"json only", [][]byte{append(append([]byte{}, jsonUnit...), jsonGen...)}, 0},
		{"binary then json", [][]byte{append(append(append([]byte{}, unit...), jsonGen...), gen...)}, 0},
		{"one shard of eight", [][]byte{
			0: unit, 3: append(append([]byte{}, gen...), unit[:9]...), 5: append(append([]byte{}, unit...), jsonUnit...), 7: gen[:len(gen)-1],
		}, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "stale")
			for i, data := range tc.segs {
				if err := os.WriteFile(segPath(path, i), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			before := segmentSums(t, path)
			s, err := Open(path)
			if err == nil {
				s.Close()
				t.Fatal("Open accepted a store holding a JSON frame")
			}
			if name := segPath(path, tc.bad); !strings.Contains(err.Error(), name) || !strings.Contains(err.Error(), "JSON layout") {
				t.Fatalf("Open: %v; want an error naming %s and the JSON layout", err, name)
			}
			if after := segmentSums(t, path); !maps.Equal(after, before) {
				t.Fatalf("segment files changed under a refused Open")
			}
		})
	}
}

// intactPrefix is the test's own reading of the segment format: the
// byte length of data's longest prefix of intact frames, how many
// distinct keys those frames carry, and whether an intact JSON frame
// follows them. A payload's first byte says how its key is laid out:
// 0x01 two raw digests, 0x02 one; '{' is the JSON layout Open refuses,
// and anything else ends the prefix.
func intactPrefix(data []byte) (good int64, keys int, json bool) {
	seen := map[string]bool{}
	off := 0
scan:
	for len(data)-off >= frameHeaderSize {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		if n == 0 || n > maxPayload || len(data)-off-frameHeaderSize < n {
			break
		}
		payload := data[off+frameHeaderSize : off+frameHeaderSize+n]
		if crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)) != binary.LittleEndian.Uint32(data[off+4:]) {
			break
		}
		var key string
		switch {
		case payload[0] == 0x01 && n >= 1+32+32+24:
			key = "unit " + string(payload[1:65])
		case payload[0] == 0x02 && n >= 1+32+24:
			key = "gen " + string(payload[1:33])
		case payload[0] == '{':
			json = true
			break scan
		default:
			break scan
		}
		seen[key] = true
		off += frameHeaderSize + n
	}
	return int64(off), len(seen), json
}

// FuzzScanLog: arbitrary segment bytes never panic Open, which keeps
// exactly the intact prefix — indexes its keys, truncates the file to
// it — whatever follows, unless an intact JSON frame follows it: then
// Open fails and the file is left as it was.
func FuzzScanLog(f *testing.F) {
	unit, gen := mustUnhex(f, goldenUnitFrame), mustUnhex(f, goldenGenFrame)
	jsonUnit, jsonGen := mustUnhex(f, goldenJSONUnitFrame), mustUnhex(f, goldenJSONGenFrame)
	f.Add(unit)
	f.Add(gen)
	f.Add(append(append([]byte{}, gen...), unit...))
	f.Add(append(append([]byte{}, jsonGen...), jsonUnit...))
	f.Add(append(append([]byte{}, unit...), jsonUnit...))         // one key in both layouts
	f.Add(frameOf([]byte{tagUnit}))                               // shorter than its fixed header
	f.Add(frameOf([]byte{0x03, 1, 2, 3}))                         // unknown tag
	f.Add(append(append([]byte{}, unit...), gen[:len(gen)-7]...)) // torn tail
	flipped := append(append([]byte{}, unit...), gen...)
	flipped[len(unit)+20] ^= 0xFF // CRC failure in the second frame
	f.Add(flipped)
	path := filepath.Join(f.TempDir(), "seed")
	s, err := Open(path)
	if err != nil {
		f.Fatal(err)
	}
	// A few short real segments, kinds mixed and two keys re-recorded;
	// short so the fuzzer's minimizer stays out of the way.
	putGolden(s)
	for i := 0; i < 8; i++ {
		a, b := sha256.Sum256([]byte{byte(i)}), sha256.Sum256([]byte{byte(i), 1})
		s.Put(a, b, unittest.Result{Passed: i%2 == 0, Output: fmt.Sprint(i)})
		s.PutGen(inference.Key(b), inference.Response{Text: fmt.Sprint(i)})
		if i < 2 {
			s.Put(a, b, unittest.Result{Output: "re-recorded"})
		}
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	for _, seg := range nonEmptyFiles(f, path+".s[0-9][0-9]") {
		f.Add(seg)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// A one-shard store: two files per run instead of nine.
		wantLen, wantKeys, refused := intactPrefix(data)
		if refused {
			path := filepath.Join(t.TempDir(), "oneshard")
			if err := os.WriteFile(segPath(path, 0), data, 0o644); err != nil {
				t.Fatal(err)
			}
			if s, err := Open(path); err == nil {
				s.closeFiles()
				t.Fatal("Open accepted a segment holding an intact JSON frame")
			}
			if got, err := os.ReadFile(segPath(path, 0)); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("a refused Open changed the segment (read error %v)", err)
			}
			return
		}
		s, path := openOneShard(t, data)
		defer s.closeFiles() // nothing to persist: skip Close's fsyncs
		if got := s.Len() + s.GenLen(); got != wantKeys {
			t.Fatalf("indexed %d keys, want %d", got, wantKeys)
		}
		fi, err := os.Stat(segPath(path, 0))
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != wantLen {
			t.Fatalf("segment is %d bytes after Open, want the %d-byte intact prefix of %d", fi.Size(), wantLen, len(data))
		}
	})
}

// frameOf wraps payload in the [len][crc32c] envelope.
func frameOf(payload []byte) []byte {
	buf := make([]byte, frameHeaderSize, frameHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, castagnoli))
	return append(buf, payload...)
}

// FuzzFrameCodec: the payload codec on arbitrary bytes. decode and
// binaryKey never panic, accept and reject together, and agree on the
// key wherever both accept; an unknown tag (a JSON payload's '{'
// among them) or a payload shorter than its tag's fixed header is
// rejected by both; a payload they accept re-encodes to itself, so there is one
// payload per (key, record). appendFrame onto a non-empty prefix made
// from the input — one with no room left, one with junk in its spare
// capacity — leaves the prefix intact and appends exactly the frame it
// appends to nothing: for the golden inputs the golden frames, and for
// a record built from the input, under both kinds, a frame whose
// envelope matches its payload and which decodes back to that key and
// record.
func FuzzFrameCodec(f *testing.F) {
	for _, golden := range []string{goldenUnitFrame, goldenGenFrame, goldenJSONUnitFrame, goldenJSONGenFrame} {
		f.Add(mustUnhex(f, golden)[frameHeaderSize:])
	}
	f.Add(appendFrame(nil, key{a: goldenTest, b: goldenAnswer}, record{})[frameHeaderSize:]) // empty Output
	f.Add([]byte{tagGen})
	f.Add([]byte("{not json"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, p []byte) {
		sk, _, scanOK := binaryKey(p)
		dk, rec, decodeOK := decode(p)
		if decodeOK && dk != sk {
			t.Fatalf("decode and binaryKey disagree on the key: %+v vs %+v", dk, sk)
		}
		wantOK := len(p) > 0 && (p[0] == tagUnit && len(p) >= unitHeaderSize || p[0] == tagGen && len(p) >= genHeaderSize)
		if scanOK != wantOK || decodeOK != wantOK {
			t.Fatalf("binaryKey/decode accept = %v/%v, want %v for %x", scanOK, decodeOK, wantOK, p)
		}
		if wantOK && !bytes.Equal(appendFrame(nil, dk, rec)[frameHeaderSize:], p) {
			t.Fatalf("accepted payload re-encodes differently: %x", p)
		}

		a := sha256.Sum256(p)
		want := record{text: string(p), num: [numFields]int64{int64(len(p)), -int64(len(p)), int64(crc32.Checksum(p, castagnoli)) << 31}}
		cases := []struct {
			k      key
			rec    record
			golden string
		}{
			{key{a: goldenTest, b: goldenAnswer}, unitRecord(goldenResult), goldenUnitFrame},
			{key{kind: kindGen, a: goldenGenKey}, genRecord(goldenResponse), goldenGenFrame},
			{key{kind: kindUnit, a: a, b: sha256.Sum256(a[:])}, want, ""},
			{key{kind: kindGen, a: a}, want, ""},
		}
		tight := append([]byte{0xA5}, p...)
		tight = tight[:len(tight):len(tight)]
		roomy := bytes.Repeat([]byte{0xFF}, len(tight)+4096)[:len(tight)]
		copy(roomy, tight)
		for _, prefix := range [][]byte{tight, roomy} {
			for _, c := range cases {
				out := appendFrame(prefix, c.k, c.rec)
				if !bytes.Equal(out[:len(tight)], tight) {
					t.Fatalf("appendFrame(%+v) changed its %d-byte prefix", c.k, len(tight))
				}
				frame := out[len(tight):]
				if fresh := appendFrame(nil, c.k, c.rec); !bytes.Equal(frame, fresh) {
					t.Fatalf("appendFrame(%+v) onto a prefix wrote %x, onto nothing %x", c.k, frame, fresh)
				}
				if c.golden != "" && hex.EncodeToString(frame) != c.golden {
					t.Fatalf("appendFrame(%+v) = %x, want the golden %s", c.k, frame, c.golden)
				}
				payload := frame[frameHeaderSize:]
				if binary.LittleEndian.Uint32(frame) != uint32(len(payload)) || binary.LittleEndian.Uint32(frame[4:]) != crc32.Checksum(payload, castagnoli) {
					t.Fatalf("appendFrame(%+v): envelope %x does not match its payload", c.k, frame[:frameHeaderSize])
				}
				if gk, got, ok := decode(payload); !ok || gk != c.k || got != c.rec {
					t.Fatalf("decode(appendFrame(%+v, %+v)) = %+v, %+v, %v", c.k, c.rec, gk, got, ok)
				}
				if sk, _, ok := binaryKey(payload); !ok || sk != c.k {
					t.Fatalf("binaryKey(appendFrame(%+v)) = %+v, %v", c.k, sk, ok)
				}
			}
		}
	})
}
