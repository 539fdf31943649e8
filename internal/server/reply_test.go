package server_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"cloudeval/client"
	"cloudeval/internal/core"
	"cloudeval/internal/dataset"
	"cloudeval/internal/engine"
	"cloudeval/internal/inference"
	"cloudeval/internal/llm"
	"cloudeval/internal/server"
	"cloudeval/internal/yamlmatch"
)

// postReply sends body to path and returns the reply's status,
// Content-Type and body.
func postReply(t *testing.T, url, path string, body any) (int, string, []byte) {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+path, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), got
}

// checkGolden compares got with testdata/name. When the file is missing
// the test records it and fails; delete the file to record it again,
// and review the diff.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	want, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Errorf("%s was missing: recorded it, run again", path)
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: reply bytes changed\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// TestEvalReplyBytes pins what the JSON routes write, byte for byte: a
// literal-answer and a model /v1/eval reply, the 404 and 400 error
// envelopes, and a POST /v1/campaign 202 taken while the campaign is
// parked on its provider (so its state and completed list are fixed).
func TestEvalReplyBytes(t *testing.T) {
	release := make(chan struct{})
	models := llm.Models[:2]
	disp := inference.NewDispatcher(gatedProvider{release: release, inner: inference.NewSim(models)})
	bench := core.NewCustomVia(engine.New(), disp, dataset.Generate()[:4], models)
	ts := httptest.NewServer(server.New(bench, t.TempDir()).Handler())
	defer ts.Close()
	p := bench.Originals[0]

	cases := []struct {
		golden string
		path   string
		body   any
		status int
	}{
		{"campaign_accepted.json", "/v1/campaign", map[string][]string{"experiments": {"table4"}}, http.StatusAccepted},
		{"eval_literal.json", "/v1/eval", client.EvalRequest{Problem: p.ID, Answer: yamlmatch.StripLabels(p.ReferenceYAML)}, http.StatusOK},
		{"eval_model.json", "/v1/eval", client.EvalRequest{Problem: p.ID, Model: models[0].Name}, http.StatusOK},
		{"eval_not_found.json", "/v1/eval", client.EvalRequest{Problem: "nope", Answer: "x"}, http.StatusNotFound},
		{"eval_bad_request.json", "/v1/eval", client.EvalRequest{Problem: p.ID}, http.StatusBadRequest},
	}
	var campaign struct{ ID string }
	for i, tc := range cases {
		status, ctype, body := postReply(t, ts.URL, tc.path, tc.body)
		if status != tc.status || ctype != "application/json" {
			t.Errorf("%s: %d %q, want %d application/json", tc.golden, status, ctype, tc.status)
		}
		checkGolden(t, tc.golden, body)
		if i == 0 {
			// The campaign's reply is taken; the model reply needs the
			// provider.
			if err := json.Unmarshal(body, &campaign); err != nil {
				t.Fatal(err)
			}
			close(release)
		}
	}
	// The campaign checkpoints under the test's temporary directory until
	// it finishes.
	waitCampaignDone(t, client.New(ts.URL), campaign.ID)
}
