package store

// The write path pinned from outside its mechanism: the exact bytes a
// fixed sequence of writes leaves in every segment, and concurrent
// writers on one segment read back intact, during the run and after a
// reopen.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cloudeval/internal/inference"
	"cloudeval/internal/unittest"
)

// putSequence is a fixed series of writes through Put and PutGen. It
// covers what the write path tells apart: empty Outputs and Texts,
// identical re-puts, changed re-puts under one key, and Outputs over
// 64 KiB with more writes after them in the same shards. It reports
// how many frames the series appends.
func putSequence(s *Store) int64 {
	big := strings.Repeat("0123456789abcdef", 70<<10/16)
	var frames int64
	for i := 0; i < 24; i++ {
		test, answer := sha256.Sum256([]byte(fmt.Sprint("seq-test-", i))), sha256.Sum256([]byte(fmt.Sprint("seq-answer-", i)))
		res := unittest.Result{Passed: i%3 == 0, Output: fmt.Sprintf("out %d\n", i), ExitCode: i % 4, VirtualTime: time.Duration(i) * time.Second}
		switch i % 6 {
		case 0:
			res.Output = ""
		case 5:
			res.Output = big[i:]
		}
		s.Put(test, answer, res)
		s.Put(test, answer, res)
		frames++
		if i%4 == 1 {
			res.ExitCode++
			s.Put(test, answer, res)
			frames++
		}

		gk := inference.Key(sha256.Sum256([]byte(fmt.Sprint("seq-gen-", i))))
		resp := inference.Response{
			Text:    fmt.Sprintf("apiVersion: v1\nkind: Pod # %d\n", i),
			Usage:   inference.Usage{PromptTokens: 100 + i, CompletionTokens: i},
			Latency: time.Duration(i) * time.Millisecond,
		}
		if i%6 == 3 {
			resp.Text = ""
		}
		s.PutGen(gk, resp)
		frames++
		if i%4 == 2 {
			s.PutGen(gk, resp)
			resp.Text += "# edited\n"
			s.PutGen(gk, resp)
			frames++
		}
	}
	return frames
}

// seqSegmentSums is the sha256 of each of the eight segment files
// putSequence leaves behind.
var seqSegmentSums = [8]string{
	"f6ea42902d458acfc8d4a4bc66647e1dd57937f4b6040d4d55ca259a4accfcfb",
	"538549ff471160225f9f74643a723c982843377cdeb4187997451cd077f2a5c0",
	"5435a1fe172302589856c302e1c3611a117f35b4b85c28fa37b851c99abf0b39",
	"2d5a78eea042ce71054571958d6fa4938f845d81d67c96e03bcbe2e17f4e1ad4",
	"cd1fef5fad8fafd0faffba4ced049c676892b2e3d1c7cd0dd023dd7fb7a36682",
	"8eede3e79a702707bf61e74641ad13b9078d4675dc0ecf3dc0d78ce4fed876fe",
	"27e933c6a1d5b7d6977cf351c715d61891a4c57f48021eb1ebbc1cc17080d794",
	"60b16a3a48d481c9bed2355affa3751b4800f49e230273e03e052851dcd07795",
}

// TestPutSequenceBytes pins the bytes of every segment file, and the
// append count, after putSequence on an eight-shard store: however the
// write path builds and writes its frames, this is what reaches the
// files.
func TestPutSequenceBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seq")
	// The top segment file fixes the shard count at eight.
	if err := os.WriteFile(segPath(path, len(seqSegmentSums)-1), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	want := putSequence(s)
	if got := s.Appended(); got != want || want != 60 {
		t.Errorf("Appended = %d, want %d (60)", got, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for i, want := range seqSegmentSums {
		data, err := os.ReadFile(segPath(path, i))
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != want {
			t.Errorf("segment %d: sha256 %x (%d bytes), want %s", i, sum, len(data), want)
		}
	}
}

// readBackCase is the pair of records writer w puts as its i-th: sizes
// vary from frame to frame, and every sixteenth Output is over 64 KiB.
func readBackCase(w, i int) (test, answer [sha256.Size]byte, res unittest.Result, gk inference.Key, resp inference.Response) {
	id := fmt.Sprintf("w%d-%d", w, i)
	test, answer = sha256.Sum256([]byte("test-"+id)), sha256.Sum256([]byte("answer-"+id))
	n := (w*131 + i*977) % 3000
	if i%16 == 15 {
		n = 70 << 10
	}
	res = unittest.Result{Passed: i%2 == 0, Output: id + strings.Repeat("x", n), ExitCode: w, VirtualTime: time.Duration(i) * time.Millisecond}
	gk = inference.Key(sha256.Sum256([]byte("gen-" + id)))
	resp = inference.Response{Text: id + strings.Repeat("y", n%257), Usage: inference.Usage{PromptTokens: i, CompletionTokens: w}, Latency: time.Duration(n)}
	return
}

// TestConcurrentPutsReadBack: eight writers put into one segment while
// readers Get what has been acknowledged. Every acknowledged record
// reads back equal, during the run and after a reopen, and the reopen
// scans exactly as many intact frames as were appended. A frame buffer
// refilled while its write is still in flight tears frames, and fails
// here.
func TestConcurrentPutsReadBack(t *testing.T) {
	s, path := openOneShard(t, nil)
	const writers, perWriter, readers = 8, 64, 4
	var acked [writers]atomic.Int64
	var writing, reading sync.WaitGroup
	var done atomic.Bool
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			for i := 0; i < perWriter; i++ {
				test, answer, res, gk, resp := readBackCase(w, i)
				s.Put(test, answer, res)
				s.PutGen(gk, resp)
				acked[w].Store(int64(i + 1))
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		reading.Add(1)
		go func(r int) {
			defer reading.Done()
			for j := r; !done.Load(); j++ {
				w := j % writers
				n := int(acked[w].Load())
				if n == 0 {
					continue
				}
				i := j * 7 % n
				test, answer, res, gk, resp := readBackCase(w, i)
				if got, ok := s.Get(test, answer); !ok || got != res {
					t.Errorf("Get(w%d-%d) during the writes: ok %v, equal %v", w, i, ok, got == res)
					return
				}
				if got, ok := s.GetGen(gk); !ok || got != resp {
					t.Errorf("GetGen(w%d-%d) during the writes: ok %v, equal %v", w, i, ok, got == resp)
					return
				}
			}
		}(r)
	}
	writing.Wait()
	done.Store(true)
	reading.Wait()
	appended := s.Appended()
	if appended != 2*writers*perWriter {
		t.Fatalf("Appended = %d, want %d", appended, 2*writers*perWriter)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.LastOpen().ScannedFrames; int64(got) != appended {
		t.Fatalf("reopen scanned %d intact frames, want the %d appended", got, appended)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			test, answer, res, gk, resp := readBackCase(w, i)
			if got, ok := s2.Get(test, answer); !ok || got != res {
				t.Fatalf("Get(w%d-%d) after reopen: ok %v, equal %v", w, i, ok, got == res)
			}
			if got, ok := s2.GetGen(gk); !ok || got != resp {
				t.Fatalf("GetGen(w%d-%d) after reopen: ok %v, equal %v", w, i, ok, got == resp)
			}
		}
	}
}
