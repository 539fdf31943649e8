package inference

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"cloudeval/internal/dataset"
	"cloudeval/internal/llm"
)

// TestRecordReplayRoundTrip records a set of sim generations and
// replays them: every replayed response must be byte- and
// field-identical, and no request may miss the trace.
func TestRecordReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gen.trace")
	rec, err := NewRecord(path, NewSim(llm.Models))
	if err != nil {
		t.Fatal(err)
	}
	problems := dataset.Generate()[:30]
	var reqs []Request
	for _, p := range problems {
		for _, model := range []string{"gpt-4", "llama-2-70b-chat"} {
			reqs = append(reqs, Request{Model: model, Problem: p})
			reqs = append(reqs, Request{Model: model, Problem: p, Opts: llm.GenOptions{Sample: 1, Temperature: 0.75}})
		}
	}
	want := make([]Response, len(reqs))
	for i, req := range reqs {
		want[i], err = rec.Generate(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	rp, err := OpenReplay(path)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Len() != len(reqs) {
		t.Fatalf("replay loaded %d entries, want %d", rp.Len(), len(reqs))
	}
	for i, req := range reqs {
		got, err := rp.Generate(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if got != want[i] {
			t.Fatalf("request %d: replayed response differs:\ngot  %+v\nwant %+v", i, got, want[i])
		}
	}
}

func TestReplayMissIsError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gen.trace")
	rec, err := NewRecord(path, NewSim(llm.Models))
	if err != nil {
		t.Fatal(err)
	}
	ps := dataset.Generate()
	if _, err := rec.Generate(context.Background(), Request{Model: "gpt-4", Problem: ps[0]}); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	rp, err := OpenReplay(path)
	if err != nil {
		t.Fatal(err)
	}
	_, err = rp.Generate(context.Background(), Request{Model: "gpt-4", Problem: ps[1]})
	if err == nil {
		t.Fatal("unrecorded request must error, never fall through to a live call")
	}
	if !strings.Contains(err.Error(), ps[1].ID) {
		t.Fatalf("miss error should name the problem: %v", err)
	}
}

func TestRecordDedupsRepeatedKeys(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gen.trace")
	rec, err := NewRecord(path, NewSim(llm.Models))
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Model: "gpt-4", Problem: dataset.Generate()[0]}
	for i := 0; i < 5; i++ {
		if _, err := rec.Generate(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(strings.TrimSpace(string(data)), "\n") + 1; lines != 1 {
		t.Fatalf("trace has %d lines, want 1", lines)
	}
}

func TestOpenReplayRejectsMalformed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.trace")
	if err := os.WriteFile(path, []byte("{\"key\":\"zz\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenReplay(path); err == nil {
		t.Fatal("malformed trace must be rejected")
	}
	if err := os.WriteFile(path, []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenReplay(path); err == nil {
		t.Fatal("non-JSON trace must be rejected")
	}
}

// TestRecordCapturesStoreServedGenerations guards the record+warm-store
// combination: generations the dispatcher serves from the persistent
// store never reach the provider chain, yet a recording provider must
// still capture them — otherwise -record over a warm -store writes an
// incomplete trace that later replays with misses.
func TestRecordCapturesStoreServedGenerations(t *testing.T) {
	problems := dataset.Generate()[:10]
	reqs := make([]Request, len(problems))
	for i, p := range problems {
		reqs[i] = Request{Model: "gpt-4", Problem: p}
	}
	// Warm a generation store in a first "process".
	warm := &memGenStore{m: map[Key]Response{}}
	d1 := NewDispatcher(NewSim(llm.Models), WithGenStore(warm))
	for _, req := range reqs {
		if _, err := d1.Generate(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}

	// Record over the warm store: every request is a store hit.
	path := filepath.Join(t.TempDir(), "gen.trace")
	rec, err := NewRecord(path, NewSim(llm.Models))
	if err != nil {
		t.Fatal(err)
	}
	d2 := NewDispatcher(rec, WithGenStore(warm))
	for _, req := range reqs {
		if _, err := d2.Generate(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	if st := d2.Stats(); st.Generated != 0 || st.StoreHits != int64(len(reqs)) {
		t.Fatalf("warm-store stats = %+v, want all store hits", st)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	rp, err := OpenReplay(path)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Len() != len(reqs) {
		t.Fatalf("recorded %d entries over a warm store, want %d", rp.Len(), len(reqs))
	}
	for _, req := range reqs {
		if _, err := rp.Generate(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
}

// memGenStore is an in-memory GenStore for tests.
type memGenStore struct {
	mu sync.Mutex
	m  map[Key]Response
}

func (s *memGenStore) GetGen(key Key) (Response, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.m[key]
	return r, ok
}

func (s *memGenStore) PutGen(key Key, resp Response) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = resp
}
