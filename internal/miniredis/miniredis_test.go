package miniredis

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

func startServer(t *testing.T) (*Server, *Client) {
	t.Helper()
	srv := NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return srv, cli
}

// TestPingSetGet: the server answers PING and refuses the string
// commands (SET, GET) it no longer serves with an error reply, and the
// connection that sent them goes on serving the queue commands.
func TestPingSetGet(t *testing.T) {
	_, c := startServer(t)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	for _, cmd := range [][]string{{"SET", "k", "v"}, {"GET", "k"}} {
		_, err := c.Do(cmd...)
		if err == nil || !strings.Contains(err.Error(), "ERR unknown command") {
			t.Fatalf("%s: err = %v, want an unknown-command error", cmd[0], err)
		}
	}
	if err := c.LPush("q", "job"); err != nil {
		t.Fatal(err)
	}
	_, v, ok, err := c.BRPop(time.Second, "q")
	if err != nil || !ok || v != "job" {
		t.Fatalf("brpop after refused commands = %q %v %v", v, ok, err)
	}
}

func TestListsAndBlockingPop(t *testing.T) {
	_, c := startServer(t)
	n, err := c.Do("RPUSH", "q", "a", "b")
	if err != nil || n != 2 {
		t.Fatalf("rpush = %v %v", n, err)
	}
	// BRPOP takes from the tail.
	_, v, ok, err := c.BRPop(time.Second, "q")
	if err != nil || !ok || v != "b" {
		t.Fatalf("brpop = %q %v %v", v, ok, err)
	}
	// Blocking path: a second client pushes after a delay.
	c2, err := Dial(c.conn.RemoteAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	go func() {
		time.Sleep(50 * time.Millisecond)
		c2.LPush("q2", "wake")
	}()
	start := time.Now()
	_, v, ok, err = c.BRPop(2*time.Second, "q2")
	if err != nil || !ok || v != "wake" {
		t.Fatalf("blocking brpop = %q %v %v", v, ok, err)
	}
	if time.Since(start) > time.Second {
		t.Error("brpop took too long after push")
	}
	// Timeout path.
	_, _, ok, err = c.BRPop(100*time.Millisecond, "empty")
	if err != nil || ok {
		t.Fatalf("timeout brpop: ok=%v err=%v", ok, err)
	}
}

func TestConcurrentWorkersDrainQueue(t *testing.T) {
	srv, producer := startServer(t)
	_ = srv
	const jobs = 200
	for i := 0; i < jobs; i++ {
		if err := producer.LPush("jobs", fmt.Sprintf("job-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	seen := map[string]bool{}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cli, err := Dial(producer.conn.RemoteAddr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer cli.Close()
			for {
				_, v, ok, err := cli.BRPop(200*time.Millisecond, "jobs")
				if err != nil || !ok {
					return
				}
				mu.Lock()
				if seen[v] {
					t.Errorf("job %s delivered twice", v)
				}
				seen[v] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(seen) != jobs {
		t.Fatalf("drained %d jobs, want %d", len(seen), jobs)
	}
}

func TestProtocolErrors(t *testing.T) {
	_, c := startServer(t)
	if _, err := c.Do("NOSUCHCMD"); err == nil {
		t.Error("unknown command should error")
	}
	if _, err := c.Do("GET"); err == nil {
		t.Error("arity error should surface")
	}
}

// TestDeadBlockedClientDoesNotStealElements is the regression test for
// the sequential-campaign hang: a client parked in BRPOP whose process
// dies must not be handed the next pushed element (the first write
// after a peer FIN "succeeds", so the element would vanish into a dead
// socket). The push that arrives after the client's death must go to a
// live waiter.
func TestDeadBlockedClientDoesNotStealElements(t *testing.T) {
	srv, cli := startServer(t)
	addr := srv.ln.Addr().String()

	dead, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	// Park the doomed client in a long BRPOP, then sever its
	// connection while it is blocked.
	parked := make(chan struct{})
	go func() {
		close(parked)
		dead.BRPop(30*time.Second, "q")
	}()
	<-parked
	time.Sleep(100 * time.Millisecond) // let the server register the waiter
	if err := dead.Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // let the server notice the EOF

	if err := cli.LPush("q", "payload"); err != nil {
		t.Fatal(err)
	}
	_, v, ok, err := cli.BRPop(5*time.Second, "q")
	if err != nil {
		t.Fatal(err)
	}
	if !ok || v != "payload" {
		t.Fatalf("live waiter got (%q, %v); the dead client stole the element", v, ok)
	}
}

// TestEmptyCommandDoesNotKillServer: a RESP empty array (`*0`) must
// produce an error reply, not an args[0] panic in the serve goroutine
// (which would take down the whole coordination store).
func TestEmptyCommandDoesNotKillServer(t *testing.T) {
	srv, cli := startServer(t)
	raw, err := net.Dial("tcp", srv.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write([]byte("*0\r\n")); err != nil {
		t.Fatal(err)
	}
	reply := make([]byte, 64)
	raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, err := raw.Read(reply)
	if err != nil || n == 0 || reply[0] != '-' {
		t.Fatalf("empty command reply = %q, %v; want an error reply", reply[:n], err)
	}
	// The server survived: a normal client still works.
	if err := cli.Ping(); err != nil {
		t.Fatalf("server unhealthy after empty command: %v", err)
	}
}
