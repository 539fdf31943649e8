package unittest

import (
	"strconv"
	"strings"
	"time"

	"cloudeval/internal/shell"
)

// Record is what one top-level command of a script did: the evidence,
// command by command, behind a unit test's verdict.
type Record struct {
	Line        int // the script line the command starts on
	Stdout      string
	Stderr      string
	ExitCode    int
	VirtualTime time.Duration // simulated time since the previous record
}

// Recorder keeps a Record for each top-level command its interpreter
// executes, from NewRecorder until the interpreter is Reset.
type Recorder struct {
	Records []Record
	sh      *shell.Interp
	now     func() time.Time
	last    time.Time
}

// NewRecorder watches sh (shell.Interp.Watch). now reads the virtual
// clock sh's sleeps and waits advance; with a nil now no virtual time
// is recorded.
func NewRecorder(sh *shell.Interp, now func() time.Time) *Recorder {
	r := &Recorder{sh: sh, now: now}
	if now != nil {
		r.last = now()
	}
	sh.Watch = r.record
	return r
}

func (r *Recorder) record(line int, stdout, stderr string, code int) {
	rec := Record{Line: line, Stdout: stdout, Stderr: stderr, ExitCode: code}
	if r.now != nil {
		t := r.now()
		rec.VirtualTime, r.last = t.Sub(r.last), t
	}
	r.Records = append(r.Records, rec)
}

// Stderr is what the recorded commands wrote to stderr, in order.
func (r *Recorder) Stderr() string {
	var b strings.Builder
	for _, rec := range r.Records {
		b.WriteString(rec.Stderr)
	}
	return b.String()
}

// Transcribe parses each script in turn, executes it and appends its
// block to b in the form of the transcript goldens: "$ " and the
// script, what its commands wrote to stdout, then "--- stderr" and what
// they wrote to stderr if anything, "--- virtual time +<d>" if they
// took any, and "--- exit <code>". A stream that does not end in a
// newline is closed by "--- no newline at end"; a script that does not
// parse gets "--- parse error: <err>" instead.
func (r *Recorder) Transcribe(b *strings.Builder, scripts ...string) {
	for _, script := range scripts {
		b.WriteString("$ " + script + "\n")
		prog, err := shell.Parse(script)
		if err != nil {
			b.WriteString("--- parse error: " + err.Error() + "\n")
			continue
		}
		from := len(r.Records)
		_, code := r.sh.Exec(prog)
		var stdout, stderr strings.Builder
		var took time.Duration
		for _, rec := range r.Records[from:] {
			stdout.WriteString(rec.Stdout)
			stderr.WriteString(rec.Stderr)
			took += rec.VirtualTime
		}
		stream(b, stdout.String())
		if stderr.Len() > 0 {
			b.WriteString("--- stderr\n")
			stream(b, stderr.String())
		}
		if took != 0 {
			b.WriteString("--- virtual time +" + took.String() + "\n")
		}
		b.WriteString("--- exit " + strconv.Itoa(code) + "\n")
	}
}

func stream(b *strings.Builder, s string) {
	b.WriteString(s)
	if s != "" && !strings.HasSuffix(s, "\n") {
		b.WriteString("\n--- no newline at end\n")
	}
}
