package shell

// Stream is an output stream a command writes: stdout, stderr, a
// pipeline stage's output or a redirected file's contents. It is a byte
// buffer owned by the IO it belongs to, and the interpreter reuses that
// buffer for the next command once this one's output has been taken.
// Whatever leaves a stream is therefore a copy (String): nothing handed
// out aliases a buffer that is written again.
type Stream struct {
	buf     []byte
	discard bool
}

// maxPooled is the largest buffer an idle stream keeps: an Interp lives
// in a pool across executions, and one hostile answer's output must not
// stay with it.
const maxPooled = 64 << 10

// discard is where output nobody reads goes: a command substitution's
// stderr and "> /dev/null". It is never written, so every interpreter
// shares it.
var discard = &Stream{discard: true}

// Write, WriteString and WriteByte append to the stream (io.Writer,
// io.StringWriter and io.ByteWriter); they never fail.
func (s *Stream) Write(p []byte) (int, error) {
	if !s.discard {
		s.buf = append(s.buf, p...)
	}
	return len(p), nil
}

func (s *Stream) WriteString(str string) (int, error) {
	if !s.discard {
		s.buf = append(s.buf, str...)
	}
	return len(str), nil
}

func (s *Stream) WriteByte(c byte) error {
	if !s.discard {
		s.buf = append(s.buf, c)
	}
	return nil
}

// String returns a copy of what was written.
func (s *Stream) String() string { return string(s.buf) }

// reset empties the stream for reuse, dropping a buffer above maxPooled.
func (s *Stream) reset() {
	if cap(s.buf) > maxPooled {
		s.buf = nil
	} else {
		s.buf = s.buf[:0]
	}
}
