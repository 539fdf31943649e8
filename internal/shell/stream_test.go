package shell

import (
	"strings"
	"testing"
)

// TestStreamsCopyOut: every string that leaves a stream — Exec's
// result, a $(...) value, a ">" file, the stdin a pipeline hands the
// next command — is its own copy. The same interpreter then runs a
// script that writes more through the same pooled buffers, and none of
// them changes.
func TestStreamsCopyOut(t *testing.T) {
	in := New()
	var stdin []string
	in.Builtins["keep"] = func(_ *Interp, io *IO, _ []string) int {
		stdin = append(stdin, io.In)
		return 0
	}
	const first = `
sub=$(echo substitution-first)
echo file-first > f.txt
echo appended-first >> g.txt
echo piped-first | keep
echo stdout-first
echo stderr-first >&2
`
	res, err := in.Run(first)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := func() []string {
		return []string{res.Stdout, res.Stderr, in.Env["sub"], in.FS["f.txt"], in.FS["g.txt"], stdin[0]}
	}
	want := []string{"stdout-first\n", "stderr-first\n", "substitution-first", "file-first\n", "appended-first\n", "piped-first\n"}
	if got := snapshot(); strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("after the first script: %q, want %q", got, want)
	}
	// The same commands again, with other bytes of the same length and
	// then more, into other variables and files.
	second := strings.NewReplacer("first", "FIRST", "sub=", "sub2=", "f.txt", "f2.txt", "g.txt", "g2.txt").Replace(first)
	for i := 0; i < 3; i++ {
		if _, err := in.Run(second + second); err != nil {
			t.Fatal(err)
		}
	}
	if got := snapshot(); strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("after the second script: %q, want %q", got, want)
	}
	if len(stdin) != 7 || stdin[1] != "piped-FIRST\n" {
		t.Errorf("keep read %q", stdin)
	}
}

// TestSubstitutionStderr: a command substitution captures its stdout,
// and its stderr only where the command sends stderr to stdout.
func TestSubstitutionStderr(t *testing.T) {
	in := New()
	in.Builtins["warn"] = func(_ *Interp, io *IO, _ []string) int {
		io.Out.WriteString("out\n")
		io.Err.WriteString("warned\n")
		return 0
	}
	res, err := in.Run(`a=$(warn 2>&1); b=$(warn); c=$(warn 2>/dev/null); echo "[$a] [$b] [$c]"`)
	if err != nil {
		t.Fatal(err)
	}
	if want := "[out\nwarned] [out] [out]\n"; res.Stdout != want || res.Stderr != "" {
		t.Errorf("stdout %q stderr %q, want %q and nothing", res.Stdout, res.Stderr, want)
	}
	// Outside a substitution stderr is still the script's, and "2>&1"
	// before ">/dev/null" sends it where stdout went before.
	res, _ = in.Run(`warn; warn >/dev/null; warn 2>&1 >/dev/null`)
	if res.Stdout != "out\nwarned\n" || res.Stderr != "warned\nwarned\n" {
		t.Errorf("stdout %q stderr %q", res.Stdout, res.Stderr)
	}
}

// TestPooledStreamsCapped: a script that prints 1 MiB through every
// kind of stream leaves no buffer above maxPooled in the interpreter's
// pool, so a pooled interpreter never keeps a hostile answer's output.
func TestPooledStreamsCapped(t *testing.T) {
	in := New()
	res, err := in.Run(`
s=x
for i in 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20; do s="$s$s"; done
echo "$s"
echo "$s" >&2
echo "$s" | cat | wc -l
n=$(echo "$s" | cat)
echo "$s" > big.txt
echo "$s" 2>&1 >> big.txt
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stdout) != 1<<20+1+len("1\n") || len(res.Stderr) != 1<<20+1 || len(in.Env["n"]) != 1<<20 || len(in.FS["big.txt"]) != 2<<20+2 {
		t.Fatalf("stdout %d B, stderr %d B, $n %d B, big.txt %d B", len(res.Stdout), len(res.Stderr), len(in.Env["n"]), len(in.FS["big.txt"]))
	}
	in.Reset()
	if len(in.ioFree) < 3 {
		t.Fatalf("%d IOs pooled, want at least the run's, a substitution's and its pipeline stage's", len(in.ioFree))
	}
	for i, io := range in.ioFree {
		if cap(io.out.buf) > maxPooled || cap(io.err.buf) > maxPooled || len(io.files) > 0 || io.In != "" {
			t.Errorf("pooled IO %d keeps %d B of stdout, %d B of stderr, %d files, %d B of stdin", i, cap(io.out.buf), cap(io.err.buf), len(io.files), len(io.In))
		}
	}
}
