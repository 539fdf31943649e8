// Package miniredis implements the slice of Redis the evaluation
// platform's master node uses to "manage unit test contexts, inputs,
// and outputs" (§3.3): a RESP2 server and client over TCP serving the
// job queue between one master and its workers. It answers PING,
// LPUSH/RPUSH and BRPOP/BLPOP on lists, and refuses every other
// command with "-ERR unknown command".
//
// It speaks the real wire protocol, so the evalcluster package's
// master/worker code has the same shape it would have against Redis.
package miniredis

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Server is a minimal Redis-compatible server.
type Server struct {
	mu    sync.Mutex
	lists map[string][]string
	cond  *sync.Cond

	ln     net.Listener
	closed chan struct{}
}

// NewServer returns an unstarted server.
func NewServer() *Server {
	s := &Server{
		lists:  make(map[string][]string),
		closed: make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Listen starts serving on addr ("127.0.0.1:0" for an ephemeral port)
// and returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	go s.acceptLoop()
	return ln.Addr().String(), nil
}

// Close stops the server and wakes all blocked clients.
func (s *Server) Close() {
	select {
	case <-s.closed:
		return
	default:
	}
	close(s.closed)
	if s.ln != nil {
		s.ln.Close()
	}
	s.mu.Lock()
	s.cond.Broadcast()
	s.mu.Unlock()
}

func (s *Server) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		go s.serve(conn)
	}
}

func (s *Server) serve(conn net.Conn) {
	defer conn.Close()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	for {
		args, err := readCommand(r)
		if err != nil {
			return
		}
		var reply string
		var rollback func()
		if len(args) == 0 {
			// e.g. the RESP empty array `*0`: dispatch's guard turns it
			// into an error reply rather than an args[0] panic here.
			reply = s.dispatch(args)
		} else if cmd := strings.ToUpper(args[0]); (cmd == "BRPOP" || cmd == "BLPOP") && r.Buffered() == 0 {
			reply, rollback = s.blockingPopConn(conn, cmd, args[1:])
			if reply == "" {
				return // client vanished while blocked; nothing was popped
			}
		} else {
			reply = s.dispatch(args)
		}
		if _, err := w.WriteString(reply); err != nil {
			if rollback != nil {
				rollback()
			}
			return
		}
		if err := w.Flush(); err != nil {
			if rollback != nil {
				rollback()
			}
			return
		}
	}
}

// blockingPopConn runs a blocking pop while watching conn for client
// death. Without the watch, a master that exits mid-BRPOP leaves a
// parked waiter that the next push is handed to: the element vanishes
// into a dead socket (the first write after a peer FIN reports
// success), silently starving the next campaign. The watcher blocks on
// a raw read — our clients are strictly request/response, so no bytes
// can legitimately arrive while a pop is pending — and an EOF marks
// the client gone before anything is popped for it. An empty reply
// means exactly that; the caller drops the connection.
func (s *Server) blockingPopConn(conn net.Conn, cmd string, args []string) (string, func()) {
	// Fast path: on a busy cluster the queue is rarely empty, and a pop
	// that can resolve immediately needs none of the watcher machinery.
	if len(args) >= 2 {
		if _, err := strconv.ParseFloat(args[len(args)-1], 64); err == nil {
			s.mu.Lock()
			reply, rollback := s.tryPopLocked(cmd, args[:len(args)-1])
			s.mu.Unlock()
			if reply != "" {
				return reply, rollback
			}
		}
	}
	gone := make(chan struct{})
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		buf := make([]byte, 1)
		if _, err := conn.Read(buf); err != nil {
			// A timeout is the main loop reclaiming the connection
			// after the pop resolved; anything else is a dead client.
			if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
				close(gone)
				s.mu.Lock()
				s.cond.Broadcast()
				s.mu.Unlock()
			}
		}
	}()
	reply, rollback := s.cmdBlockingPopWatch(cmd, args, gone)
	conn.SetReadDeadline(time.Now())
	<-watchDone
	conn.SetReadDeadline(time.Time{})
	select {
	case <-gone:
		// The client died while (or right after) the pop resolved: put
		// any popped element back for a live waiter.
		if rollback != nil {
			rollback()
		}
		return "", nil
	default:
	}
	return reply, rollback
}

// readCommand parses one RESP array of bulk strings (also tolerating
// inline commands).
func readCommand(r *bufio.Reader) ([]string, error) {
	line, err := readLine(r)
	if err != nil {
		return nil, err
	}
	if len(line) == 0 {
		return nil, fmt.Errorf("empty command")
	}
	if line[0] != '*' {
		return strings.Fields(line), nil
	}
	n, err := strconv.Atoi(line[1:])
	if err != nil || n < 0 {
		return nil, fmt.Errorf("bad array header %q", line)
	}
	args := make([]string, 0, n)
	for i := 0; i < n; i++ {
		hdr, err := readLine(r)
		if err != nil {
			return nil, err
		}
		if len(hdr) == 0 || hdr[0] != '$' {
			return nil, fmt.Errorf("expected bulk string, got %q", hdr)
		}
		size, err := strconv.Atoi(hdr[1:])
		if err != nil || size < 0 {
			return nil, fmt.Errorf("bad bulk length %q", hdr)
		}
		buf := make([]byte, size+2)
		if _, err := ioReadFull(r, buf); err != nil {
			return nil, err
		}
		args = append(args, string(buf[:size]))
	}
	return args, nil
}

func ioReadFull(r *bufio.Reader, buf []byte) (int, error) {
	total := 0
	for total < len(buf) {
		n, err := r.Read(buf[total:])
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

func readLine(r *bufio.Reader) (string, error) {
	line, err := r.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(line, "\r\n"), nil
}

// RESP reply encoders.
func simple(s string) string   { return "+" + s + "\r\n" }
func errReply(s string) string { return "-ERR " + s + "\r\n" }
func intReply(n int) string    { return ":" + strconv.Itoa(n) + "\r\n" }
func bulk(s string) string     { return "$" + strconv.Itoa(len(s)) + "\r\n" + s + "\r\n" }
func arrayReply(ss []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "*%d\r\n", len(ss))
	for _, s := range ss {
		b.WriteString(bulk(s))
	}
	return b.String()
}
func nilArray() string { return "*-1\r\n" }

func (s *Server) dispatch(args []string) string {
	if len(args) == 0 {
		return errReply("empty command")
	}
	cmd := strings.ToUpper(args[0])
	switch cmd {
	case "PING":
		return simple("PONG")
	case "LPUSH", "RPUSH":
		return s.cmdPush(cmd, args[1:])
	case "BRPOP", "BLPOP":
		reply, _ := s.cmdBlockingPopWatch(cmd, args[1:], nil)
		return reply
	default:
		return errReply("unknown command '" + args[0] + "'")
	}
}

func (s *Server) cmdPush(cmd string, args []string) string {
	if len(args) < 2 {
		return errReply("wrong number of arguments for 'push'")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	key := args[0]
	for _, v := range args[1:] {
		if cmd == "LPUSH" {
			s.lists[key] = append([]string{v}, s.lists[key]...)
		} else {
			s.lists[key] = append(s.lists[key], v)
		}
	}
	s.cond.Broadcast()
	return intReply(len(s.lists[key]))
}

// cmdBlockingPopWatch implements BRPOP/BLPOP with a timeout in seconds
// (0 = wait forever); gone is nil on a path with no connection to
// watch (a pop pipelined behind other commands). When gone closes, it
// returns an empty reply without popping anything. A successful pop
// comes with a rollback that re-pushes the element (for a reply that
// could not be delivered).
func (s *Server) cmdBlockingPopWatch(cmd string, args []string, gone <-chan struct{}) (string, func()) {
	if len(args) < 2 {
		return errReply("wrong number of arguments for 'brpop'"), nil
	}
	timeoutSecs, err := strconv.ParseFloat(args[len(args)-1], 64)
	if err != nil {
		return errReply("timeout is not a float or out of range"), nil
	}
	keys := args[:len(args)-1]
	deadline := time.Now().Add(time.Duration(timeoutSecs * float64(time.Second)))

	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if gone != nil {
			select {
			case <-gone:
				return "", nil
			default:
			}
		}
		if reply, rollback := s.tryPopLocked(cmd, keys); reply != "" {
			return reply, rollback
		}
		select {
		case <-s.closed:
			return nilArray(), nil
		default:
		}
		if timeoutSecs > 0 && time.Now().After(deadline) {
			return nilArray(), nil
		}
		// Wake periodically to honor timeouts even without pushes.
		waker := time.AfterFunc(50*time.Millisecond, func() {
			s.mu.Lock()
			s.cond.Broadcast()
			s.mu.Unlock()
		})
		s.cond.Wait()
		waker.Stop()
	}
}

// tryPopLocked pops from the first non-empty key, returning the RESP
// reply and a rollback that re-pushes the element (for replies that
// cannot be delivered). Empty reply means every key was empty. Callers
// hold mu; rollback must be called without it.
func (s *Server) tryPopLocked(cmd string, keys []string) (string, func()) {
	for _, key := range keys {
		lst := s.lists[key]
		if len(lst) == 0 {
			continue
		}
		var v string
		if cmd == "BLPOP" {
			v, s.lists[key] = lst[0], lst[1:]
		} else {
			v, s.lists[key] = lst[len(lst)-1], lst[:len(lst)-1]
		}
		rollback := func() {
			s.mu.Lock()
			if cmd == "BLPOP" {
				s.lists[key] = append([]string{v}, s.lists[key]...)
			} else {
				s.lists[key] = append(s.lists[key], v)
			}
			s.cond.Broadcast()
			s.mu.Unlock()
		}
		return arrayReply([]string{key, v}), rollback
	}
	return "", nil
}
