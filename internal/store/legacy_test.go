package store_test

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"

	"cloudeval/internal/inference"
	"cloudeval/internal/store"
	"cloudeval/internal/unittest"
)

// legacyFrame mirrors the on-disk JSON payload the pre-shard writer
// produced, synthesized here byte-for-byte (field order and omitempty
// behavior match the historical layout) so the compatibility tests do
// not depend on the current writer at all.
type legacyFrame struct {
	Kind             string  `json:"kind,omitempty"`
	Test             string  `json:"test,omitempty"`
	Answer           string  `json:"answer,omitempty"`
	Passed           bool    `json:"passed,omitempty"`
	Output           string  `json:"output,omitempty"`
	ExitCode         int     `json:"exit_code,omitempty"`
	VirtualSecs      float64 `json:"virtual_secs,omitempty"`
	Gen              string  `json:"gen,omitempty"`
	Text             string  `json:"text,omitempty"`
	PromptTokens     int     `json:"prompt_tokens,omitempty"`
	CompletionTokens int     `json:"completion_tokens,omitempty"`
	LatencyNs        int64   `json:"latency_ns,omitempty"`
}

var legacyCRC = crc32.MakeTable(crc32.Castagnoli)

// appendLegacyFrame encodes one record in the single-file log format:
// [4-byte LE length][4-byte LE CRC-32C][JSON payload].
func appendLegacyFrame(t *testing.T, buf *bytes.Buffer, fr legacyFrame) {
	t.Helper()
	payload, err := json.Marshal(fr)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, legacyCRC))
	buf.Write(hdr[:])
	buf.Write(payload)
}

func legacyUnitFrame(test, answer string, res unittest.Result) legacyFrame {
	tk, ak := digests(test, answer)
	return legacyFrame{
		Test:        hex.EncodeToString(tk[:]),
		Answer:      hex.EncodeToString(ak[:]),
		Passed:      res.Passed,
		Output:      res.Output,
		ExitCode:    res.ExitCode,
		VirtualSecs: res.VirtualTime.Seconds(),
	}
}

func legacyGenFrame(key inference.Key, resp inference.Response) legacyFrame {
	return legacyFrame{
		Kind:             "gen",
		Gen:              hex.EncodeToString(key[:]),
		Text:             resp.Text,
		PromptTokens:     resp.Usage.PromptTokens,
		CompletionTokens: resp.Usage.CompletionTokens,
		LatencyNs:        resp.Latency.Nanoseconds(),
	}
}

// writeLegacyLog synthesizes a pre-shard single-file store at path
// holding n unit-test records (keys legacy-test-i/legacy-answer-i),
// one superseded duplicate of key 0, and g generation records.
func writeLegacyLog(t *testing.T, path string, n, g int) {
	t.Helper()
	var buf bytes.Buffer
	// A stale first record for key 0: replay must resolve newest-wins
	// within the legacy file itself.
	appendLegacyFrame(t, &buf, legacyUnitFrame("legacy-test-0", "legacy-answer-0",
		unittest.Result{Passed: false, Output: "stale first run"}))
	for i := 0; i < n; i++ {
		appendLegacyFrame(t, &buf, legacyUnitFrame(
			fmt.Sprintf("legacy-test-%d", i), fmt.Sprintf("legacy-answer-%d", i),
			unittest.Result{Passed: true, Output: fmt.Sprintf("out-%d", i), VirtualTime: time.Duration(i) * time.Second}))
	}
	for i := 0; i < g; i++ {
		appendLegacyFrame(t, &buf, legacyGenFrame(legacyGenKey(i), inference.Response{
			Text:    fmt.Sprintf("kind: Pod # %d\n", i),
			Usage:   inference.Usage{PromptTokens: 100 + i, CompletionTokens: 30 + i},
			Latency: time.Duration(i+1) * time.Millisecond,
		}))
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func legacyGenKey(i int) inference.Key { return genKey(fmt.Sprintf("legacy-gen-%d", i)) }

// requireLegacyContents checks the store serves what
// writeLegacyLog(records, gens) put in the file — every record at its
// newest in-file value, every generation — and holds nothing else but
// extra further unit-test records.
func requireLegacyContents(t *testing.T, s *store.Store, records, gens, extra int) {
	t.Helper()
	if s.Len() != records+extra || s.GenLen() != gens {
		t.Fatalf("Len/GenLen = %d/%d, want %d/%d", s.Len(), s.GenLen(), records+extra, gens)
	}
	for i := 0; i < records; i++ {
		tk, ak := digests(fmt.Sprintf("legacy-test-%d", i), fmt.Sprintf("legacy-answer-%d", i))
		got, ok := s.Get(tk, ak)
		if !ok || !got.Passed || got.Output != fmt.Sprintf("out-%d", i) || got.VirtualTime != time.Duration(i)*time.Second {
			t.Fatalf("legacy record %d = %+v, %v", i, got, ok)
		}
	}
	for i := 0; i < gens; i++ {
		got, ok := s.GetGen(legacyGenKey(i))
		if !ok || got.Text != fmt.Sprintf("kind: Pod # %d\n", i) || got.Usage.PromptTokens != 100+i {
			t.Fatalf("legacy generation %d = %+v, %v", i, got, ok)
		}
	}
}

// segmentBytes snapshots every shard segment's content.
func segmentBytes(t *testing.T, path string) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, seg := range segmentPaths(t, path) {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		out[seg] = string(data)
	}
	return out
}

// TestLegacySingleFileLogReplays is the backward-compatibility
// contract: a store written in the pre-shard single-file layout is
// still a supported input. Open migrates it — every unit-test and
// generation record is visible, newest-wins holds within the legacy
// file — and the file is gone once Open returns; the records live on
// in the segments.
func TestLegacySingleFileLogReplays(t *testing.T) {
	path := filepath.Join(t.TempDir(), "eval.store")
	const records, gens = 40, 10
	writeLegacyLog(t, path, records, gens)

	s, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("legacy log still present after Open (stat err %v)", err)
	}
	requireLegacyContents(t, s, records, gens, 0)
	// One frame per key was copied: the superseded first record of key
	// 0 stayed behind.
	if got := s.Appended(); got != records+gens {
		t.Fatalf("migration appended %d frames, want %d", got, records+gens)
	}
	tk, ak := digests("new-test", "new-answer")
	s.Put(tk, ak, unittest.Result{Passed: true})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A reopen finds migrated and new records in the segments alone.
	s2, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, ok := s2.Get(tk, ak); !ok {
		t.Fatal("post-migration append lost on reopen")
	}
	requireLegacyContents(t, s2, records, gens, 1)
}

// TestLegacyRecordSupersededBySegmentAppend pins the conflict rule: a
// key present both in a segment and in a legacy file keeps the segment
// record — appends have only gone to segments since the sharded layout
// exists, so it is at least as new.
func TestLegacyRecordSupersededBySegmentAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "eval.store")
	writeLegacyLog(t, path, 8, 0)
	legacyBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	s, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	tk, ak := digests("legacy-test-3", "legacy-answer-3")
	newer := unittest.Result{Passed: false, Output: "superseded by re-run", ExitCode: 7}
	s.Put(tk, ak, newer)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The old file comes back (a restored backup, or a crash that beat
	// the delete) carrying key 3's older value.
	if err := os.WriteFile(path, legacyBytes, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got, ok := s2.Get(tk, ak); !ok || got != newer {
		t.Fatalf("Get = %+v, %v; want the segment record %+v to win over legacy", got, ok, newer)
	}
	if s2.Len() != 8 {
		t.Fatalf("Len = %d, want 8", s2.Len())
	}
}

// TestLegacyReappearingFileChangesNothing is the idempotence half of
// the crash argument: a legacy file found beside segments that already
// hold all of its keys — what a crash between the migration's fsync and
// its delete leaves — appends nothing, leaves every segment
// byte-identical, and is removed.
func TestLegacyReappearingFileChangesNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "eval.store")
	const records, gens = 16, 4
	writeLegacyLog(t, path, records, gens)
	legacyBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	migrated := segmentBytes(t, path)

	if err := os.WriteFile(path, legacyBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Appended(); got != 0 {
		t.Fatalf("re-migration appended %d frames, want 0", got)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("reappeared legacy log still present after Open (stat err %v)", err)
	}
	for seg, want := range migrated {
		if got := segmentBytes(t, path)[seg]; got != want {
			t.Fatalf("%s changed: %d -> %d bytes", filepath.Base(seg), len(want), len(got))
		}
	}
	requireLegacyContents(t, s2, records, gens, 0)
}

// TestLegacyCompactMigratesToShardedLayout carries migrated records
// through the rest of the sharded layout's life cycle: Compact rewrites
// them to one frame per key, and a reopen scanning those frames still
// serves every one.
func TestLegacyCompactMigratesToShardedLayout(t *testing.T) {
	path := filepath.Join(t.TempDir(), "eval.store")
	const records, gens = 24, 6
	writeLegacyLog(t, path, records, gens)

	s, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("legacy log still present after migration and Compact (stat err %v)", err)
	}
	requireLegacyContents(t, s, records, gens, 0)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.LastOpen(); st.ScannedFrames != records+gens {
		t.Fatalf("reopen after Compact = %+v, want a scan of %d frames", st, records+gens)
	}
	requireLegacyContents(t, s2, records, gens, 0)
}

// TestLegacyTornTailDropped: a legacy log with a crash-torn tail
// migrates cleanly, dropping only the torn record.
func TestLegacyTornTailDropped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "eval.store")
	writeLegacyLog(t, path, 8, 0)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear mid-way through the final frame.
	if err := os.WriteFile(path, data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(path)
	if err != nil {
		t.Fatalf("Open on torn legacy log: %v", err)
	}
	defer s.Close()
	requireLegacyContents(t, s, 7, 0, 0)
	tk, ak := digests("legacy-test-7", "legacy-answer-7")
	if _, ok := s.Get(tk, ak); ok {
		t.Fatal("torn legacy record served")
	}
}
