package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"cloudeval/client"
	"cloudeval/internal/core"
	"cloudeval/internal/dataset"
	"cloudeval/internal/engine"
	"cloudeval/internal/inference"
	"cloudeval/internal/llm"
	"cloudeval/internal/score"
	"cloudeval/internal/server"
	"cloudeval/internal/store"
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
	bench := core.New(score.NewEvaluator(engine.New(), disp), dataset.Generate()[:4], models)
	ts := httptest.NewServer(server.NewWithConfig(bench, t.TempDir(), server.Config{}).Handler())
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

// keyShape renders the object keys of a JSON body in the order they
// are written, one per line and indented by depth, with the values
// left out. An array element is a "-" line followed by its own shape,
// and a run of elements with one shape is written once, so the store's
// per-shard array, whose length follows GOMAXPROCS, has one shape on
// every machine. Two bodies with the same shape differ only in their
// values and array lengths.
func keyShape(t *testing.T, body []byte) []byte {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	var walk func(b *bytes.Buffer, depth int)
	walk = func(b *bytes.Buffer, depth int) {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		indent := strings.Repeat("  ", depth)
		switch tok {
		case json.Delim('{'):
			for dec.More() {
				key, err := dec.Token()
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(b, "%s%s\n", indent, key)
				walk(b, depth+1)
			}
		case json.Delim('['):
			var prev []byte
			for dec.More() {
				var elem bytes.Buffer
				fmt.Fprintf(&elem, "%s-\n", indent)
				walk(&elem, depth+1)
				if !bytes.Equal(elem.Bytes(), prev) {
					b.Write(elem.Bytes())
					prev = elem.Bytes()
				}
			}
		default:
			return
		}
		if _, err := dec.Token(); err != nil { // the closing delimiter
			t.Fatal(err)
		}
	}
	var b bytes.Buffer
	walk(&b, 0)
	return b.Bytes()
}

// getBody fetches path and returns the reply body, failing unless the
// status is 200.
func getBody(t *testing.T, url, path string) []byte {
	t.Helper()
	resp, err := http.Get(url + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", path, resp.StatusCode, body)
	}
	return body
}

// TestReplyKeyShapes pins the order of every key, at every depth, in
// the two largest JSON replies: GET /v1/stats of a store-backed daemon
// after one leaderboard, and GET /v1/campaign/{id} of a finished
// campaign. encoding/json writes a struct's fields in declaration
// order, so a change to the type a reply is encoded from shows here
// even when every key is still present.
func TestReplyKeyShapes(t *testing.T) {
	ctx := context.Background()
	st, err := store.Open(filepath.Join(t.TempDir(), "eval.store"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	bench := smallBench(engine.New(engine.WithStore(st)))
	ts := httptest.NewServer(server.NewWithConfig(bench, t.TempDir(), server.Config{Store: st}).Handler())
	defer ts.Close()
	c := client.New(ts.URL)

	if _, err := c.Leaderboard(ctx); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "stats.keys", keyShape(t, getBody(t, ts.URL, "/v1/stats")))

	started, err := c.StartCampaign(ctx, []string{"table2", "table4"})
	if err != nil {
		t.Fatal(err)
	}
	waitCampaignDone(t, c, started.ID)
	checkGolden(t, "campaign_done.keys", keyShape(t, getBody(t, ts.URL, "/v1/campaign/"+started.ID)))
}

// jsonTaggedStructs parses the non-test Go files of dir and returns the
// structs with a field carrying a json tag: a named struct by its type
// name, an anonymous one by its position.
func jsonTaggedStructs(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var tagged []string
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		names := map[*ast.StructType]string{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				if st, ok := n.Type.(*ast.StructType); ok {
					names[st] = n.Name.Name
				}
			case *ast.StructType:
				for _, field := range n.Fields.List {
					if field.Tag == nil || !strings.Contains(field.Tag.Value, "json:") {
						continue
					}
					name, ok := names[n]
					if !ok {
						name = "anonymous struct at " + fset.Position(n.Pos()).String()
					}
					tagged = append(tagged, name)
					break
				}
			}
			return true
		})
	}
	return tagged
}

// TestWireTypesDeclaredOnce holds the /v1 schema to one declaration, in
// package client: the server encodes and decodes client's types, so the
// only JSON-tagged structs it declares are evalResponse and evalScores,
// which write the eval reply's scores from fields instead of a map.
// The store, which knows nothing of the wire, tags no field of
// ShardStat.
func TestWireTypesDeclaredOnce(t *testing.T) {
	got := jsonTaggedStructs(t, ".")
	slices.Sort(got)
	if want := []string{"evalResponse", "evalScores"}; !slices.Equal(got, want) {
		t.Errorf("internal/server declares JSON-tagged structs %q, want only %q: encode and decode the client package's types", got, want)
	}
	if slices.Contains(jsonTaggedStructs(t, filepath.Join("..", "store")), "ShardStat") {
		t.Error("store.ShardStat carries json tags: the wire form of a shard is client.ShardStats")
	}
}
