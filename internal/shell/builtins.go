package shell

import (
	"fmt"
	"hash/maphash"
	"math"
	"regexp"
	"strconv"
	"strings"
	"time"

	"cloudeval/internal/memo"
)

// coreBuiltins is the shared read-only table of coreutils-flavored
// commands every unit test script can rely on. It is built once at
// package init and consulted by Interp.invoke after the per-interp
// Builtins map, so constructing an interpreter never copies it. All
// entries are stateless: each receives the calling Interp explicitly
// and keeps no state of its own, which is what makes sharing the table
// across concurrently running interpreters safe. (Populated in init
// rather than a declaration-time call: invoke referring to the map and
// a builtin referring back to invoke would otherwise form an
// initialization cycle.)
var coreBuiltins map[string]Builtin

func init() { coreBuiltins = buildCoreBuiltins() }

func buildCoreBuiltins() map[string]Builtin {
	b := make(map[string]Builtin, 16)
	b["echo"] = builtinEcho
	b["cat"] = builtinCat
	b["grep"] = builtinGrep
	b["sleep"] = builtinSleep
	b["true"] = func(*Interp, *IO, []string) int { return 0 }
	b["false"] = func(*Interp, *IO, []string) int { return 1 }
	b[":"] = func(*Interp, *IO, []string) int { return 0 }
	b["exit"] = builtinExit
	b["wc"] = builtinWC
	b["head"] = builtinHead
	b["timeout"] = builtinTimeout
	return b
}

func builtinEcho(_ *Interp, io *IO, args []string) int {
	newline := true
	for len(args) > 0 && args[0] == "-n" {
		newline = false
		args = args[1:]
	}
	if len(args) > 0 && args[0] == "-e" {
		fmt.Fprintln(io.Err, "echo: -e is not supported")
		return 1
	}
	for i, a := range args {
		if i > 0 {
			io.Out.WriteByte(' ')
		}
		io.Out.WriteString(a)
	}
	if newline {
		io.Out.WriteByte('\n')
	}
	return 0
}

func builtinCat(in *Interp, io *IO, args []string) int {
	if len(args) == 0 {
		io.Out.WriteString(io.In)
		return 0
	}
	code := 0
	for _, f := range args {
		if f == "-" {
			io.Out.WriteString(io.In)
			continue
		}
		content, ok := in.FS[f]
		if !ok {
			fmt.Fprintf(io.Err, "cat: %s: No such file or directory\n", f)
			code = 1
			continue
		}
		io.Out.WriteString(content)
	}
	return code
}

// builtinGrep is grep as the corpus runs it, a pattern over files or
// stdin with -q, and as the counting idiom runs it, with -c. -E, the
// matcher's syntax already, is accepted; any other option is refused.
func builtinGrep(in *Interp, io *IO, args []string) int {
	quiet, count := false, false
	var pattern string
	var files []string
	havePattern := false
	for _, a := range args {
		switch {
		case len(a) > 1 && a[0] == '-' && strings.Trim(a[1:], "qcE") == "":
			quiet = quiet || strings.Contains(a, "q")
			count = count || strings.Contains(a, "c")
		case len(a) > 1 && a[0] == '-':
			fmt.Fprintf(io.Err, "grep: %s is not supported\n", a)
			return 2
		case !havePattern:
			pattern = a
			havePattern = true
		default:
			files = append(files, a)
		}
	}
	if !havePattern {
		fmt.Fprintln(io.Err, "usage: grep [-qcE] pattern [file...]")
		return 2
	}
	matcher := compileGrep(pattern)
	var input string
	if len(files) == 0 {
		input = io.In
	} else {
		var sb strings.Builder
		for _, f := range files {
			content, ok := in.FS[f]
			if !ok {
				fmt.Fprintf(io.Err, "grep: %s: No such file or directory\n", f)
				return 2
			}
			sb.WriteString(content)
			if content != "" && !strings.HasSuffix(content, "\n") {
				sb.WriteString("\n")
			}
		}
		input = sb.String()
	}
	matched := 0
	// Empty input is no lines, and a last line needs no newline.
	for rest := input; rest != ""; {
		line := rest
		if i := strings.IndexByte(rest, '\n'); i >= 0 {
			line, rest = rest[:i], rest[i+1:]
		} else {
			rest = ""
		}
		if !matcher.match(line) {
			continue
		}
		matched++
		if !quiet && !count {
			fmt.Fprintln(io.Out, line)
		}
	}
	if count {
		fmt.Fprintln(io.Out, matched)
	}
	if matched > 0 {
		return 0
	}
	return 1
}

// grepMatcher matches by its regexp, or by substring when the pattern
// does not compile as one.
type grepMatcher struct {
	re      *regexp.Regexp
	literal string
}

// grepBudget bounds the matcher cache. Patterns are mostly the
// constants of the corpus — every experiment of cloudeval figures
// together compiles 65, charged 225 KB — but one built from a variable
// holds model output.
const grepBudget = 4 << 20

// grepCost charges an entry its pattern plus its compiled regexp,
// measured at about 1 KB for a short pattern and 50 bytes more per
// pattern byte.
func grepCost(pattern string) int64 { return memo.EntryOverhead + 1<<10 + 64*int64(len(pattern)) }

// grepMatchers holds each matcher, keyed by its pattern, the first time
// a script asks for it.
var (
	grepSeed     = maphash.MakeSeed()
	grepMatchers = memo.NewLRU[string, grepMatcher](grepHash, grepBudget)
)

func grepHash(pattern string) uint64 { return maphash.String(grepSeed, pattern) }

func compileGrep(pattern string) grepMatcher {
	m, _, _ := grepMatchers.Do(pattern, func() (grepMatcher, int64, error) {
		m := grepMatcher{literal: pattern}
		if re, err := regexp.Compile(pattern); err == nil {
			m = grepMatcher{re: re}
		}
		return m, grepCost(pattern), nil
	})
	return m
}

func (g grepMatcher) match(line string) bool {
	if g.re != nil {
		return g.re.MatchString(line)
	}
	return strings.Contains(line, g.literal)
}

func builtinSleep(in *Interp, io *IO, args []string) int {
	if len(args) == 0 {
		return 0
	}
	d, ok := parseDuration(args[0])
	if !ok {
		fmt.Fprintf(io.Err, "sleep: invalid time interval %q\n", args[0])
		return 1
	}
	in.Advance(d)
	return 0
}

// parseDuration reads a sleep or timeout interval: "15", "0.5", "8s",
// "2m", "1h". It refuses one that is negative, NaN or past
// time.Duration's range ("inf", "1e12"): GNU sleep would wait the last
// out, but a script's virtual time is never unbounded (ROADMAP item 4).
func parseDuration(s string) (time.Duration, bool) {
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		secs := f * float64(time.Second)
		return time.Duration(secs), secs >= 0 && secs < math.MaxInt64
	}
	d, err := time.ParseDuration(s)
	return d, err == nil && d >= 0
}

func builtinExit(in *Interp, io *IO, args []string) int {
	code := in.lastExit
	if len(args) > 0 {
		if v, err := strconv.Atoi(args[0]); err == nil {
			code = v
		}
	}
	in.Exit(code)
	return code
}

func builtinWC(in *Interp, io *IO, args []string) int {
	lines := false
	var files []string
	for _, a := range args {
		if a == "-l" {
			lines = true
		} else if !strings.HasPrefix(a, "-") {
			files = append(files, a)
		}
	}
	input := io.In
	if len(files) > 0 {
		input = in.FS[files[0]]
	}
	n := 0
	if input != "" {
		n = strings.Count(input, "\n")
		if !strings.HasSuffix(input, "\n") {
			n++
		}
	}
	if lines {
		fmt.Fprintln(io.Out, n)
	} else {
		words := len(strings.Fields(input))
		fmt.Fprintf(io.Out, "%d %d %d\n", n, words, len(input))
	}
	return 0
}

func builtinHead(in *Interp, io *IO, args []string) int {
	n := 10
	var files []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		switch {
		case a == "-n" && i+1 < len(args):
			if v, err := strconv.Atoi(args[i+1]); err == nil {
				n = v
			}
			i++
		case strings.HasPrefix(a, "-n"):
			if v, err := strconv.Atoi(a[2:]); err == nil {
				n = v
			}
		case strings.HasPrefix(a, "-"):
			if v, err := strconv.Atoi(a[1:]); err == nil {
				n = v
			}
		default:
			files = append(files, a)
		}
	}
	input := io.In
	if len(files) > 0 {
		input = in.FS[files[0]]
	}
	lines := strings.Split(strings.TrimSuffix(input, "\n"), "\n")
	if n < 0 {
		n = max(len(lines)+n, 0) // -n -K: all but the last K
	}
	if n < len(lines) {
		lines = lines[:n]
	}
	for _, ln := range lines {
		fmt.Fprintln(io.Out, ln)
	}
	return 0
}

func builtinTimeout(in *Interp, io *IO, args []string) int {
	// timeout [-s SIGNAL] DURATION command args...
	i := 0
	for i < len(args) && strings.HasPrefix(args[i], "-") {
		if args[i] == "-s" {
			i++ // signal name
		}
		i++
	}
	if i >= len(args) {
		fmt.Fprintln(io.Err, "timeout: missing duration")
		return 125
	}
	d, ok := parseDuration(args[i])
	if !ok {
		fmt.Fprintf(io.Err, "timeout: invalid duration %q\n", args[i])
		return 125
	}
	i++
	if i >= len(args) {
		fmt.Fprintln(io.Err, "timeout: missing command")
		return 125
	}
	in.Advance(d)
	return in.invoke(args[i:], io)
}
