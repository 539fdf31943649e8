package shell

import (
	"fmt"
	"strings"
	"testing"

	"cloudeval/internal/raceflag"
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
	res, err := runOn(in, first)
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
		if _, err := runOn(in, second+second); err != nil {
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
	res, err := runOn(in, `a=$(warn 2>&1); b=$(warn); c=$(warn 2>/dev/null); echo "[$a] [$b] [$c]"`)
	if err != nil {
		t.Fatal(err)
	}
	if want := "[out\nwarned] [out] [out]\n"; res.Stdout != want || res.Stderr != "" {
		t.Errorf("stdout %q stderr %q, want %q and nothing", res.Stdout, res.Stderr, want)
	}
	// Outside a substitution stderr is still the script's, and "2>&1"
	// before ">/dev/null" sends it where stdout went before.
	res, _ = runOn(in, `warn; warn >/dev/null; warn 2>&1 >/dev/null`)
	if res.Stdout != "out\nwarned\n" || res.Stderr != "warned\nwarned\n" {
		t.Errorf("stdout %q stderr %q", res.Stdout, res.Stderr)
	}
}

// TestPooledStreamsCapped: a script that prints 1 MiB through every
// kind of stream leaves no buffer above maxPooled in the interpreter's
// pool, so a pooled interpreter never keeps a hostile answer's output.
func TestPooledStreamsCapped(t *testing.T) {
	in := New()
	res, err := runOn(in, `
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

// TestExecWatch: Exec with Watch unset returns the stdout and exit
// status it returns with Watch set. What the script writes to stderr
// is then dropped, except what a "2>&1" at the top level points at
// stdout, and it is not buffered only to be dropped.
func TestExecWatch(t *testing.T) {
	in := New()
	in.Builtins["warn"] = func(_ *Interp, io *IO, _ []string) int {
		io.Out.WriteString("out\n")
		io.Err.WriteString("warned\n")
		return 3
	}
	for _, script := range []string{
		`warn`, `warn >/dev/null`, `warn 2>&1`, `warn 2>&1 >/dev/null`, `echo a; warn 2>&1 | grep -c e`,
		`x=$(warn 2>&1); echo "[$x]"`, `echo only-stderr >&2`, `warn 2>&1 >&2`,
	} {
		prog, err := Parse(script)
		if err != nil {
			t.Fatal(err)
		}
		want := watched(in, prog)
		if stdout, code := in.Exec(prog); stdout != want.Stdout || code != want.ExitCode {
			t.Errorf("%s: unwatched %q exit %d, watched %q exit %d", script, stdout, code, want.Stdout, want.ExitCode)
		}
	}
	prog, _ := Parse(`echo only-stderr >&2`)
	if stdout, code := in.Exec(prog); stdout != "" || code != 0 {
		t.Errorf("a stderr-only script gave %q exit %d", stdout, code)
	}
	var discarded []bool
	in.Builtins["where"] = func(_ *Interp, io *IO, _ []string) int {
		discarded = append(discarded, io.Err == discard)
		return 0
	}
	where, _ := Parse(`where; where 2>&1; where | where`)
	in.Exec(where)
	watched(in, where)
	if got := fmt.Sprint(discarded); got != "[true false true true false false false false]" {
		t.Errorf("stderr discarded unwatched, then watched: %s", got)
	}
	if raceflag.Enabled {
		return
	}
	if allocs := testing.AllocsPerRun(100, func() { in.Exec(prog) }); allocs != 0 {
		t.Errorf("a stderr-only script allocates %.1f times, want 0: its stderr was kept", allocs)
	}
}

// TestArgvReuse: the argv a command expands into comes from the
// interpreter's pool, and a command substitution in one of its words
// runs commands of its own, which take argvs from the same pool while
// the outer one is filling. Every field must still be where it was put,
// through nesting, pipelines and repeated runs.
func TestArgvReuse(t *testing.T) {
	in := New()
	var got [][]string
	in.Builtins["keep"] = func(_ *Interp, _ *IO, args []string) int {
		got = append(got, append([]string(nil), args...))
		return 0
	}
	const script = `
a=A
for i in 1 2 3; do
  keep $a $i $(echo $a $i $(echo $i $a inner) $(echo $a | grep $a) after) $i end
  echo $a $i $(echo $i $i) | keep $a $(echo piped $i) $i
done
keep $(keep x y z; echo $a) $a
`
	for run := 0; run < 3; run++ {
		got = got[:0]
		if res, err := runOn(in, script); err != nil || res.ExitCode != 0 {
			t.Fatalf("run %d: %v %+v", run, err, res)
		}
		var lines []string
		for _, args := range got {
			lines = append(lines, strings.Join(args, " "))
		}
		want := []string{
			"A 1 A 1 1 A inner A after 1 end", "A piped 1 1",
			"A 2 A 2 2 A inner A after 2 end", "A piped 2 2",
			"A 3 A 3 3 A inner A after 3 end", "A piped 3 3",
			"x y z", "A A",
		}
		if strings.Join(lines, "\n") != strings.Join(want, "\n") {
			t.Errorf("run %d: keep saw\n%s\nwant\n%s", run, strings.Join(lines, "\n"), strings.Join(want, "\n"))
		}
	}
	if !raceflag.Enabled {
		prog, _ := Parse("x=a\ntrue $x \"$x\" ${x} $x")
		if allocs := testing.AllocsPerRun(100, func() { in.Exec(prog) }); allocs != 0 {
			t.Errorf("a command whose words expand allocates %.1f times, want 0", allocs)
		}
	}
	in.Reset()
	for i, argv := range in.argvFree {
		for _, s := range argv[:cap(argv)] {
			if s != "" {
				t.Errorf("pooled argv %d keeps %q", i, s)
			}
		}
	}
}

// TestWriteHelpersMatchFmt: the helpers builtins write stdout with
// print what the fmt verbs they replace printed, padding by characters
// as %-*s does (a negative width is no padding, where fmt would read it
// as a flag), and a discarded stream stays unwritten.
func TestWriteHelpersMatchFmt(t *testing.T) {
	var s Stream
	var want strings.Builder
	for _, str := range []string{"", "web", "exactly-8", "much-longer-than-the-column", "héllo", "日本"} {
		for _, width := range []int{0, 5, 8} {
			s.WriteColumn(str, width)
			fmt.Fprintf(&want, "%-*s ", width, str)
		}
	}
	// A width the text already fills, or past it, is no padding.
	s.WriteColumn("", -3)
	want.WriteString(" ")
	for _, n := range []int{0, 7, -12, 503, 1 << 40} {
		s.WriteInt(n)
		s.WriteStrings("|", "x", "", "|")
		fmt.Fprintf(&want, "%d|x|", n)
	}
	if got := s.String(); got != want.String() {
		t.Errorf("helpers wrote\n%q\nfmt\n%q", got, want.String())
	}
	discard.WriteColumn("x", 4)
	discard.WriteInt(1)
	discard.WriteStrings("a", "b")
	if len(discard.buf) != 0 {
		t.Errorf("a discarded stream holds %q", discard.buf)
	}
}
