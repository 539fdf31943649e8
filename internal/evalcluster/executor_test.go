package evalcluster

import (
	"encoding/json"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"cloudeval/internal/dataset"
)

// TestWireBytes pins what each end of the wire writes, so a master and
// a worker built from adjacent revisions still understand each other.
// The expected bytes are what the schema has encoded since it was
// first shared between the two ends.
func TestWireBytes(t *testing.T) {
	for _, tc := range []struct {
		name string
		v    any
		want string
	}{
		{"job",
			job{ID: "xjob-7", ProblemID: "kubernetes-pod-3", Answer: "kind: Pod\nmetadata:\n  name: \"<web>\" & co\n"},
			`{"id":"xjob-7","problem_id":"kubernetes-pod-3","answer":"kind: Pod\nmetadata:\n  name: \"\u003cweb\u003e\" \u0026 co\n"}`},
		{"passing result",
			result{ID: "xjob-7", ProblemID: "kubernetes-pod-3", Passed: true, Worker: "w1", VirtualSecs: 12.5},
			`{"id":"xjob-7","problem_id":"kubernetes-pod-3","passed":true,"worker":"w1","virtual_secs":12.5}`},
		{"failed result",
			result{ID: "xjob-8", ProblemID: "envoy-9", Output: "Error: timed out\n", Error: "unknown problem envoy-9", Worker: "w2"},
			`{"id":"xjob-8","problem_id":"envoy-9","passed":false,"output":"Error: timed out\n","error":"unknown problem envoy-9","worker":"w2","virtual_secs":0}`},
	} {
		got, err := json.Marshal(tc.v)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}

	// Earlier workers also sent cache_hit; a master reads past it.
	var r result
	if err := json.Unmarshal([]byte(`{"id":"xjob-9","problem_id":"p","passed":true,"worker":"w1","virtual_secs":3,"cache_hit":true}`), &r); err != nil {
		t.Fatal(err)
	}
	if want := (result{ID: "xjob-9", ProblemID: "p", Passed: true, Worker: "w1", VirtualSecs: 3}); r != want {
		t.Errorf("decoded %+v, want %+v", r, want)
	}
}

// proxy forwards TCP connections to a coordination store until closed,
// when it drops every connection it carries.
type proxy struct {
	ln    net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func startProxy(t *testing.T, upstream string) *proxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &proxy{ln: ln}
	t.Cleanup(p.close)
	go func() {
		for {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", upstream)
			if err != nil {
				down.Close()
				return
			}
			p.mu.Lock()
			p.conns = append(p.conns, down, up)
			p.mu.Unlock()
			go io.Copy(up, down)
			go io.Copy(down, up)
		}
	}()
	return p
}

func (p *proxy) close() {
	p.ln.Close()
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.conns {
		c.Close()
	}
}

// TestLostResultConnectionFailsWaiters: when the connection results
// arrive on drops, a job waiting for its result fails at once with an
// error naming the lost connection instead of waiting out the timeout,
// and so does every later job.
func TestLostResultConnectionFailsWaiters(t *testing.T) {
	p := startProxy(t, startStore(t))
	exec, err := NewClusterExecutor(p.ln.Addr().String(), 8*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer exec.Close()
	problem := dataset.Generate()[0]

	start := time.Now()
	time.AfterFunc(300*time.Millisecond, p.close) // no worker: the job waits
	r := exec.RunUnitTest(problem, "a: 1")
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("waiting job returned after %v, want < 2s", took)
	}
	if r.Err == nil || !strings.Contains(r.Err.Error(), "result connection lost") {
		t.Fatalf("waiting job: Err = %v, want the lost connection", r.Err)
	}

	start = time.Now()
	r = exec.RunUnitTest(problem, "a: 2")
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Errorf("later job returned after %v, want at once", took)
	}
	if r.Err == nil || !strings.Contains(r.Err.Error(), "result connection lost") {
		t.Errorf("later job: Err = %v, want the lost connection", r.Err)
	}
}
