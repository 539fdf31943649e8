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

// Client is a synchronous RESP2 client. It is safe for concurrent use;
// commands serialize over one connection.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

// Dial connects to a Redis-compatible server.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}, nil
}

// Close releases the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Do sends a command and returns the decoded reply: string for simple/
// bulk replies, int for integers, []string for arrays, nil for null.
func (c *Client) Do(args ...string) (any, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "*%d\r\n", len(args))
	for _, a := range args {
		fmt.Fprintf(&b, "$%d\r\n%s\r\n", len(a), a)
	}
	if _, err := c.w.WriteString(b.String()); err != nil {
		return nil, err
	}
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	return c.readReply()
}

func (c *Client) readReply() (any, error) {
	line, err := readLine(c.r)
	if err != nil {
		return nil, err
	}
	if line == "" {
		return nil, fmt.Errorf("miniredis: empty reply")
	}
	switch line[0] {
	case '+':
		return line[1:], nil
	case '-':
		return nil, fmt.Errorf("miniredis: %s", line[1:])
	case ':':
		return strconv.Atoi(line[1:])
	case '$':
		n, err := strconv.Atoi(line[1:])
		if err != nil {
			return nil, err
		}
		if n < 0 {
			return nil, nil
		}
		buf := make([]byte, n+2)
		if _, err := ioReadFull(c.r, buf); err != nil {
			return nil, err
		}
		return string(buf[:n]), nil
	case '*':
		n, err := strconv.Atoi(line[1:])
		if err != nil {
			return nil, err
		}
		if n < 0 {
			return nil, nil
		}
		out := make([]string, 0, n)
		for i := 0; i < n; i++ {
			item, err := c.readReply()
			if err != nil {
				return nil, err
			}
			s, _ := item.(string)
			out = append(out, s)
		}
		return out, nil
	}
	return nil, fmt.Errorf("miniredis: unexpected reply %q", line)
}

// Convenience wrappers used by the evaluation cluster.

// Ping checks liveness.
func (c *Client) Ping() error {
	v, err := c.Do("PING")
	if err != nil {
		return err
	}
	if v != "PONG" {
		return fmt.Errorf("miniredis: unexpected ping reply %v", v)
	}
	return nil
}

// LPush prepends values to a list.
func (c *Client) LPush(key string, values ...string) error {
	_, err := c.Do(append([]string{"LPUSH", key}, values...)...)
	return err
}

// BRPop blocks until a value is available or the timeout elapses; ok is
// false on timeout.
func (c *Client) BRPop(timeout time.Duration, keys ...string) (key, value string, ok bool, err error) {
	secs := fmt.Sprintf("%.3f", timeout.Seconds())
	v, err := c.Do(append(append([]string{"BRPOP"}, keys...), secs)...)
	if err != nil || v == nil {
		return "", "", false, err
	}
	pair := v.([]string)
	if len(pair) != 2 {
		return "", "", false, fmt.Errorf("miniredis: malformed brpop reply %v", pair)
	}
	return pair[0], pair[1], true, nil
}
