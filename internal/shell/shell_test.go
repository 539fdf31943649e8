package shell

import (
	"strings"
	"testing"
	"time"

	"cloudeval/internal/raceflag"
)

func run(t *testing.T, script string) Result {
	t.Helper()
	in := New()
	res, err := in.Run(script)
	if err != nil {
		t.Fatalf("run %q: %v", script, err)
	}
	return res
}

func TestEcho(t *testing.T) {
	if got := run(t, `echo hello world`).Stdout; got != "hello world\n" {
		t.Errorf("stdout = %q", got)
	}
	if got := run(t, `echo -n no newline`).Stdout; got != "no newline" {
		t.Errorf("stdout = %q", got)
	}
}

func TestVariablesAndExpansion(t *testing.T) {
	res := run(t, `
name=world
greeting="hello $name"
echo $greeting
echo ${name}
echo "${#name}"
`)
	want := "hello world\nworld\n5\n"
	if res.Stdout != want {
		t.Errorf("stdout = %q, want %q", res.Stdout, want)
	}
}

func TestCommandSubstitution(t *testing.T) {
	res := run(t, `
x=$(echo inner)
echo "got: $x"
echo "escaped: \`+"`"+`"
`)
	if res.Stdout != "got: inner\nescaped: `\n" {
		t.Errorf("stdout = %q", res.Stdout)
	}
	// $(...) is the one spelling of a command substitution.
	for _, src := range []string{"echo `echo old-style`", "echo \"ticks: `echo old-style`\""} {
		_, err := New().Run(src)
		if err == nil || !strings.Contains(err.Error(), "use $(...)") {
			t.Errorf("%s: err = %v, want the error naming $(...)", src, err)
		}
	}
}

func TestArithmetic(t *testing.T) {
	res := run(t, `echo $((100+23))`)
	if res.Stdout != "123\n" {
		t.Errorf("stdout = %q", res.Stdout)
	}
	res = run(t, `
count=0
((count++))
((count++))
((count+=10))
echo $count
`)
	if res.Stdout != "12\n" {
		t.Errorf("stdout = %q", res.Stdout)
	}
	res = run(t, `echo $(( (2+3)*4 ))`)
	if res.Stdout != "20\n" {
		t.Errorf("stdout = %q", res.Stdout)
	}
}

func TestIfElse(t *testing.T) {
	res := run(t, `
x=5
if [ "$x" == "5" ]; then
  echo five
else
  echo other
fi
if [ "$x" == "6" ]; then
  echo six
elif [ "$x" -gt 4 ]; then
  echo big
else
  echo small
fi
`)
	if res.Stdout != "five\nbig\n" {
		t.Errorf("stdout = %q", res.Stdout)
	}
}

func TestDoubleBracketPatterns(t *testing.T) {
	res := run(t, `
env_vars="REGISTRY_HOST REGISTRY_PORT"
if [[ $env_vars == *"REGISTRY_HOST"* && $env_vars == *"REGISTRY_PORT"* ]]; then
  echo both
fi
if [[ $env_vars == *"MISSING"* ]]; then
  echo bad
else
  echo good
fi
`)
	if res.Stdout != "both\ngood\n" {
		t.Errorf("stdout = %q", res.Stdout)
	}
}

func TestConditionOperators(t *testing.T) {
	cases := []struct {
		script string
		want   int
	}{
		{`[[ -z "" ]]`, 0},
		{`[[ -z "x" ]]`, 1},
		{`[[ -n "x" ]]`, 0},
		{`[[ 3 -lt 5 ]]`, 0},
		{`[[ 5 -le 4 ]]`, 1},
		{`[[ abc != abd ]]`, 0},
		{`[[ "a b" == "a b" ]]`, 0},
		{`[[ hello =~ ^h.*o$ ]]`, 0},
		{`! [[ 1 -eq 1 ]]`, 1},
	}
	for _, c := range cases {
		if got := run(t, c.script).ExitCode; got != c.want {
			t.Errorf("%q exit = %d, want %d", c.script, got, c.want)
		}
	}
}

func TestForLoop(t *testing.T) {
	res := run(t, `
total=0
for i in 1 2 3; do
  ((total+=i))
done
echo $total
items="a b c"
for x in $items; do echo -n "$x."; done
echo
`)
	if res.Stdout != "6\na.b.c.\n" {
		t.Errorf("stdout = %q", res.Stdout)
	}
}

func TestWhileLoop(t *testing.T) {
	res := run(t, `
n=0
while [ $n -lt 3 ]; do
  ((n++))
  echo $n
done
`)
	if res.Stdout != "1\n2\n3\n" {
		t.Errorf("stdout = %q", res.Stdout)
	}
}

func TestStepLimitStopsRunawayLoops(t *testing.T) {
	in := New()
	in.MaxSteps = 500
	res, err := in.Run(`while true; do x=1; done`)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 124 {
		t.Errorf("exit = %d, want 124", res.ExitCode)
	}
}

func TestPipelines(t *testing.T) {
	res := run(t, `echo -e "b\na\nc" | grep -v a | head -n 1`)
	if res.Stdout != "b\n" {
		t.Errorf("stdout = %q", res.Stdout)
	}
}

func TestGrep(t *testing.T) {
	res := run(t, `echo -e "apple\nbanana\ncherry" | grep an`)
	if res.Stdout != "banana\n" || res.ExitCode != 0 {
		t.Errorf("stdout = %q exit %d", res.Stdout, res.ExitCode)
	}
	if got := run(t, `echo hello | grep absent`).ExitCode; got != 1 {
		t.Errorf("no-match exit = %d, want 1", got)
	}
	if got := run(t, `echo hello | grep -q hello && echo found`).Stdout; got != "found\n" {
		t.Errorf("grep -q && chain = %q", got)
	}
	res = run(t, `echo -e "a\nb\na" | grep -c a`)
	if res.Stdout != "2\n" {
		t.Errorf("grep -c = %q", res.Stdout)
	}
}

// TestGrepCombinedFlags: letters of -q, -v, -c, -i, -o and -E combine
// into one argument as in GNU grep; any other letter leaves the
// argument ignored, as an unknown flag is.
func TestGrepCombinedFlags(t *testing.T) {
	for _, tc := range []struct {
		script, stdout string
		exit           int
	}{
		{`echo -e "Running\nPending" | grep -qi running`, "", 0},
		{`echo -e "Running\nPending" | grep -io RUN`, "Run\n", 0},
		{`echo -e "a\nb\na" | grep -vc a`, "1\n", 0},
		{`echo -e "a\nb" | grep -Ev a`, "b\n", 0},
		{`echo -e "A\na" | grep -iz a`, "a\n", 0},
	} {
		if res := run(t, tc.script); res.Stdout != tc.stdout || res.ExitCode != tc.exit {
			t.Errorf("%s: stdout %q exit %d, want %q exit %d", tc.script, res.Stdout, res.ExitCode, tc.stdout, tc.exit)
		}
	}
}

// TestGrepEmptyInput: empty input is no lines, not one empty line, so
// nothing is selected, not even by -v. Each want is what bash with GNU
// grep prints and exits with.
func TestGrepEmptyInput(t *testing.T) {
	for _, tc := range []struct {
		script, stdout string
		exit           int
	}{
		{`echo -n "" | grep -v x`, "", 1},
		{`echo -n "" | grep -vc x`, "0\n", 1},
		{`echo -n "" | grep -c x`, "0\n", 1},
		{`echo -n "" | grep -q -v x`, "", 1},
		{`echo "" | grep -vc x`, "1\n", 0},
		{`echo -n "a" | grep -c a`, "1\n", 0},
		{`: > e.txt; grep -vc x e.txt`, "0\n", 1},
		{`: > e.txt; grep -v x e.txt; echo "exit $?"`, "exit 1\n", 0},
	} {
		if res := run(t, tc.script); res.Stdout != tc.stdout || res.ExitCode != tc.exit {
			t.Errorf("%s: stdout %q exit %d, want %q exit %d", tc.script, res.Stdout, res.ExitCode, tc.stdout, tc.exit)
		}
	}
}

// TestGrepMatcherHit: a repeated matcher lookup hands back the compiled
// regexp the first one built and allocates nothing.
func TestGrepMatcherHit(t *testing.T) {
	m := compileGrep("Run+ing", true)
	if again := compileGrep("Run+ing", true); m.re == nil || again.re != m.re {
		t.Fatal("a repeated lookup compiled the pattern again")
	}
	if raceflag.Enabled {
		return
	}
	if allocs := testing.AllocsPerRun(100, func() { compileGrep("Run+ing", true) }); allocs != 0 {
		t.Errorf("a grep-matcher hit allocates %.0f times, want 0", allocs)
	}
}

func TestAndOrChains(t *testing.T) {
	if got := run(t, `true && echo yes || echo no`).Stdout; got != "yes\n" {
		t.Errorf("got %q", got)
	}
	if got := run(t, `false && echo yes || echo no`).Stdout; got != "no\n" {
		t.Errorf("got %q", got)
	}
}

func TestExitStopsScript(t *testing.T) {
	res := run(t, `
echo before
exit 3
echo after
`)
	if res.Stdout != "before\n" {
		t.Errorf("stdout = %q", res.Stdout)
	}
	if res.ExitCode != 3 {
		t.Errorf("exit = %d", res.ExitCode)
	}
}

func TestExitInsideIf(t *testing.T) {
	res := run(t, `
if true; then
  exit 1
fi
echo unreachable
`)
	if strings.Contains(res.Stdout, "unreachable") || res.ExitCode != 1 {
		t.Errorf("res = %+v", res)
	}
}

func TestRedirects(t *testing.T) {
	in := New()
	res, err := in.Run(`
echo first > out.txt
echo second >> out.txt
cat out.txt
echo hidden > /dev/null
`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stdout != "first\nsecond\n" {
		t.Errorf("stdout = %q", res.Stdout)
	}
	if in.FS["out.txt"] != "first\nsecond\n" {
		t.Errorf("file = %q", in.FS["out.txt"])
	}
}

func TestStderrRedirect(t *testing.T) {
	in := New()
	res, err := in.Run(`cat missing.yaml > log.txt 2>&1
cat log.txt`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Stdout, "No such file") {
		t.Errorf("2>&1 did not capture stderr: %+v fs=%q", res, in.FS["log.txt"])
	}
}

func TestStdinRedirect(t *testing.T) {
	in := New()
	in.FS["data.txt"] = "from file\n"
	res, err := in.Run(`cat < data.txt`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stdout != "from file\n" {
		t.Errorf("stdout = %q", res.Stdout)
	}
}

func TestMultilineQuotedEcho(t *testing.T) {
	res := run(t, `echo "line one
line two" | grep two`)
	if res.Stdout != "line two\n" {
		t.Errorf("stdout = %q", res.Stdout)
	}
}

func TestSleepAdvancesVirtualClock(t *testing.T) {
	in := New()
	var advanced time.Duration
	in.AdvanceClock = func(d time.Duration) { advanced += d }
	start := time.Now()
	if _, err := in.Run(`sleep 15; sleep 2s`); err != nil {
		t.Fatal(err)
	}
	if advanced != 17*time.Second {
		t.Errorf("advanced = %v, want 17s", advanced)
	}
	if real := time.Since(start); real > time.Second {
		t.Errorf("sleep took real time: %v", real)
	}
}

func TestTimeoutRunsCommand(t *testing.T) {
	in := New()
	var advanced time.Duration
	in.AdvanceClock = func(d time.Duration) { advanced += d }
	res, err := in.Run(`timeout -s INT 8s echo survived`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stdout != "survived\n" || advanced != 8*time.Second {
		t.Errorf("res=%+v advanced=%v", res, advanced)
	}
}

func TestUnknownCommand(t *testing.T) {
	res := run(t, `definitely-not-a-command`)
	if res.ExitCode != 127 {
		t.Errorf("exit = %d, want 127", res.ExitCode)
	}
	if !strings.Contains(res.Stderr, "command not found") {
		t.Errorf("stderr = %q", res.Stderr)
	}
}

func TestLastExitVariable(t *testing.T) {
	res := run(t, `false
echo $?
true
echo $?`)
	if res.Stdout != "1\n0\n" {
		t.Errorf("stdout = %q", res.Stdout)
	}
}

func TestCommentsIgnored(t *testing.T) {
	res := run(t, `# a comment
echo ok # trailing comment
`)
	if res.Stdout != "ok\n" {
		t.Errorf("stdout = %q", res.Stdout)
	}
}

func TestWordSplittingOfVariables(t *testing.T) {
	res := run(t, `
pods="pod-a pod-b pod-c"
for p in $pods; do echo "[$p]"; done
`)
	if res.Stdout != "[pod-a]\n[pod-b]\n[pod-c]\n" {
		t.Errorf("stdout = %q", res.Stdout)
	}
	// Quoted variables do not split.
	res = run(t, `x="a b"; echo "$x" | wc -l`)
	if strings.TrimSpace(res.Stdout) != "1" {
		t.Errorf("quoted split: %q", res.Stdout)
	}
}

func TestGlobMatch(t *testing.T) {
	cases := []struct {
		pattern, s string
		want       bool
	}{
		{"*", "anything", true},
		{"a*c", "abc", true},
		{"a*c", "ac", true},
		{"a*c", "abd", false},
		{"*REGISTRY_HOST*", "REGISTRY_HOST REGISTRY_PORT", true},
		{"?at", "cat", true},
		{"?at", "flat", false},
		{`\*literal`, "*literal", true},
		{`\*literal`, "xliteral", false},
		{"*apps/v1*", "apiVersion: apps/v1", true},
	}
	for _, c := range cases {
		if got := globMatch(c.pattern, c.s); got != c.want {
			t.Errorf("globMatch(%q, %q) = %v, want %v", c.pattern, c.s, got, c.want)
		}
	}
}

func TestSampleScriptShape(t *testing.T) {
	// The control-flow skeleton of the paper's Appendix C sample #1.
	res := run(t, `
passed_tests=0
total_tests=3
curl_output="200"
if [ "$curl_output" == "200" ]; then
  ((passed_tests++))
else
  exit 1
fi
env_vars="REGISTRY_HOST REGISTRY_PORT"
if [[ $env_vars == *"REGISTRY_HOST"* && $env_vars == *"REGISTRY_PORT"* ]]; then
  ((passed_tests++))
fi
cpu_limit="100m"
memory_limit="50Mi"
if [ "$cpu_limit" == "100m" ] && [ "$memory_limit" == "50Mi" ]; then
  ((passed_tests++))
fi
if [ $passed_tests -eq $total_tests ]; then
  echo unit_test_passed
fi
`)
	if !strings.Contains(res.Stdout, "unit_test_passed") {
		t.Errorf("sample script failed: %+v", res)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`if true; then echo x`, // missing fi
		`for x in; echo`,       // missing do
		`[[ 1 -eq 1`,           // unterminated cond
		`echo "unterminated`,
		`echo 'unterminated`,
	}
	for _, src := range bad {
		in := New()
		if _, err := in.Run(src); err == nil {
			t.Errorf("expected parse error for %q", src)
		}
	}
}

func TestEnvPersistsAcrossRuns(t *testing.T) {
	in := New()
	if _, err := in.Run(`x=keep`); err != nil {
		t.Fatal(err)
	}
	res, err := in.Run(`echo $x`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stdout != "keep\n" {
		t.Errorf("stdout = %q", res.Stdout)
	}
}
