package unittest

import (
	"strings"
	"testing"
	"time"

	"cloudeval/internal/dataset"
	"cloudeval/internal/scenario"
	"cloudeval/internal/shell"
)

// recorderScript has one top-level command per line: plain stdout,
// stdout sent to stderr, stderr sent to stdout, a failing command, a
// sleep, and an exit that stops the line after it.
const recorderScript = `echo out
echo err >&2
cat missing.txt 2>&1
cat missing.txt
sleep 2
exit 3
echo never`

// TestRecorder: a recorded script yields one Record per top-level
// command executed, each with its own streams, exit status and virtual
// time, and the records' stdouts, concatenated, are what Exec returns
// with no recorder watching.
func TestRecorder(t *testing.T) {
	prog, err := shell.Parse(recorderScript)
	if err != nil {
		t.Fatal(err)
	}
	const missing = "cat: missing.txt: No such file or directory\n"
	want := []Record{
		{Line: 1, Stdout: "out\n"},
		{Line: 2, Stderr: "err\n"},
		{Line: 3, Stdout: missing, ExitCode: 1},
		{Line: 4, Stderr: missing, ExitCode: 1},
		{Line: 5, VirtualTime: 2 * time.Second},
		{Line: 6, ExitCode: 3},
	}

	backend := scenario.For(dataset.Kubernetes)
	env := backend.NewEnv()
	rec := NewRecorder(env.Interp(), env.Now)
	stdout, code := env.Interp().Exec(prog)
	if len(rec.Records) != len(want) {
		t.Fatalf("%d records, want %d: %+v", len(rec.Records), len(want), rec.Records)
	}
	var joined strings.Builder
	for i, r := range rec.Records {
		if r != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, r, want[i])
		}
		joined.WriteString(r.Stdout)
	}
	if code != 3 || stdout != joined.String() {
		t.Errorf("watched Exec = %q exit %d, want the records' %q exit 3", stdout, code, joined.String())
	}

	// Reset stops the recorder: the same script on the reset
	// environment, with nothing watching, prints what the records hold.
	env.Reset()
	plain, plainCode := env.Interp().Exec(prog)
	if plain != joined.String() || plainCode != rec.Records[len(rec.Records)-1].ExitCode {
		t.Errorf("unwatched Exec = %q exit %d, want %q exit %d", plain, plainCode, joined.String(), rec.Records[len(rec.Records)-1].ExitCode)
	}
	if len(rec.Records) != len(want) {
		t.Errorf("the recorder kept watching after Reset: %d records", len(rec.Records))
	}
	if got := rec.Stderr(); got != "err\n"+missing {
		t.Errorf("Stderr() = %q", got)
	}
}
