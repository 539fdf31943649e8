package client

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"cloudeval/internal/score"
)

// goldenReplies are the server's pinned JSON replies (TestEvalReplyBytes
// in internal/server).
func goldenReplies(tb testing.TB) map[string][]byte {
	tb.Helper()
	paths, err := filepath.Glob("../internal/server/testdata/*.json")
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no golden replies (%v)", err)
	}
	out := make(map[string][]byte, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		out[filepath.Base(p)] = data
	}
	return out
}

// replyScores returns the raw scores object of a golden eval reply.
func replyScores(tb testing.TB, reply []byte) []byte {
	tb.Helper()
	var r struct{ Scores json.RawMessage }
	if err := json.Unmarshal(reply, &r); err != nil || r.Scores == nil {
		tb.Fatalf("reply has no scores (%v): %s", err, reply)
	}
	return r.Scores
}

func TestMetricNamesMatchScore(t *testing.T) {
	if !reflect.DeepEqual(metricNames[:], score.Metrics) {
		t.Errorf("client metric names %q, score.Metrics %q", metricNames, score.Metrics)
	}
}

var decoded Scores

// TestScoresDecodeAllocs: decoding a reply's scores allocates what a
// map of its six members does and nothing else — no key strings, no
// reflection.
func TestScoresDecodeAllocs(t *testing.T) {
	raw := replyScores(t, goldenReplies(t)["eval_model.json"])
	mapOnly := testing.AllocsPerRun(100, func() {
		decoded = make(Scores, len(metricNames))
		for _, name := range metricNames {
			decoded[name] = 1
		}
	})
	got := testing.AllocsPerRun(100, func() {
		decoded = nil
		if err := decoded.UnmarshalJSON(raw); err != nil {
			t.Fatal(err)
		}
	})
	if len(decoded) != len(metricNames) {
		t.Fatalf("decoded %v from %s", decoded, raw)
	}
	if got != mapOnly {
		t.Errorf("decoding a reply's scores: %v allocations, want %v (the map's)", got, mapOnly)
	}
}

// FuzzScoresDecode holds Scores.UnmarshalJSON to json.Unmarshal into a
// map[string]float64: for any input, into a nil map or merging into a
// non-nil one, both fail or both succeed and leave the same map.
func FuzzScoresDecode(f *testing.F) {
	for _, reply := range goldenReplies(f) {
		f.Add(reply, false)
		var r struct{ Scores json.RawMessage }
		if json.Unmarshal(reply, &r) == nil && r.Scores != nil {
			f.Add([]byte(r.Scores), false)
			f.Add([]byte(r.Scores), true)
		}
	}
	for _, seed := range []string{
		`{}`, ` { } `, `null`, `{"bleu":null}`, `{"bleu":"1"}`, `{"bleu":true}`,
		`{"bleu":1}`, `{"bleu\n":1}`, `{"é":1}`, `{"bleu":1,"bleu":2}`,
		`{"bleu":1e3,"kv_exact":-0,"x":2.5E-3,"y":1e+2}`, `{"bleu":1e400}`,
		`{"bleu":1e-400}`, `{"bleu":01}`, `{"bleu":1.}`, `{"bleu":.5}`, `{"bleu":-}`,
		`{"bleu":1,}`, `{"bleu":1} x`, `{"bleu":1}{}`, `{"a":1,"b":2,"c":3,"d":4,"e":5,"f":6,"g":7,"h":8,"i":9,"j":10,"k":11,"l":12,"m":13}`,
		`[1]`, `{"bleu":{"a":1}}`, `{"bleu" 1}`, ``, `{`,
	} {
		f.Add([]byte(seed), false)
		f.Add([]byte(seed), true)
	}
	f.Fuzz(func(t *testing.T, data []byte, merge bool) {
		var got Scores
		var want map[string]float64
		if merge {
			got = Scores{"bleu": 0.5, "other": 1}
			want = map[string]float64{"bleu": 0.5, "other": 1}
		}
		gotErr := got.UnmarshalJSON(data)
		wantErr := json.Unmarshal(data, &want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%q: UnmarshalJSON error %v, json.Unmarshal error %v", data, gotErr, wantErr)
		}
		if !reflect.DeepEqual(map[string]float64(got), want) {
			t.Fatalf("%q: UnmarshalJSON gave %v, json.Unmarshal %v", data, got, want)
		}
	})
}
