package shell

import (
	"strconv"
	"unicode/utf8"
)

// Stream is an output stream a command writes: stdout, stderr, a
// pipeline stage's output or a redirected file's contents. It is a byte
// buffer owned by the IO it belongs to, and the interpreter reuses that
// buffer for the next command once this one's output has been taken.
// What the interpreter takes out of a stream is copied, so nothing it
// hands out aliases a buffer that is written again: to the heap for
// what may outlive the execution (Exec's stdout, a pipeline's stdin, a
// file's contents), to the interpreter's Text for a command
// substitution's value.
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

// WriteError writes err's text and a newline. Nothing renders the text
// of an error headed for a stream nobody reads: a simulator's refusal
// builds its message only in Error, and on the discarded stream that is
// never called.
func (s *Stream) WriteError(err error) {
	if !s.discard {
		s.buf = append(append(s.buf, err.Error()...), '\n')
	}
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

// What builtins write their stdout with instead of fmt, which boxes
// every argument it formats: a run of strings, a left-justified table
// column and a decimal integer.

// WriteStrings writes each of strs in turn.
func (s *Stream) WriteStrings(strs ...string) {
	if s.discard {
		return
	}
	for _, str := range strs {
		s.buf = append(s.buf, str...)
	}
}

// WriteColumn writes str left-justified in a column width characters
// wide, as fmt's %-*s pads it, and then the space that ends the column.
func (s *Stream) WriteColumn(str string, width int) {
	if s.discard {
		return
	}
	s.buf = append(s.buf, str...)
	for n := utf8.RuneCountInString(str); n < width; n++ {
		s.buf = append(s.buf, ' ')
	}
	s.buf = append(s.buf, ' ')
}

// WriteInt writes n in decimal.
func (s *Stream) WriteInt(n int) {
	if !s.discard {
		s.buf = strconv.AppendInt(s.buf, int64(n), 10)
	}
}
