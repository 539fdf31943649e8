package shell

import (
	"fmt"
	"hash/maphash"
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
	b["set"] = func(*Interp, *IO, []string) int { return 0 }
	b["unset"] = func(in *Interp, _ *IO, args []string) int {
		for _, a := range args {
			delete(in.Env, a)
		}
		return 0
	}
	b["rm"] = func(in *Interp, _ *IO, args []string) int {
		for _, a := range args {
			if !strings.HasPrefix(a, "-") {
				delete(in.FS, a)
			}
		}
		return 0
	}
	b["basename"] = func(_ *Interp, io *IO, args []string) int {
		if len(args) > 0 {
			parts := strings.Split(args[0], "/")
			fmt.Fprintln(io.Out, parts[len(parts)-1])
		}
		return 0
	}
	return b
}

func builtinEcho(_ *Interp, io *IO, args []string) int {
	newline := true
	interpret := false
	for len(args) > 0 {
		if args[0] == "-n" {
			newline = false
			args = args[1:]
		} else if args[0] == "-e" {
			interpret = true
			args = args[1:]
		} else {
			break
		}
	}
	for i, a := range args {
		if i > 0 {
			io.Out.WriteByte(' ')
		}
		if interpret {
			// No escape holds a space, so escaping each argument is
			// escaping the line.
			echoEscapes.WriteString(io.Out, a)
		} else {
			io.Out.WriteString(a)
		}
	}
	if newline {
		io.Out.WriteByte('\n')
	}
	return 0
}

// echoEscapes are the backslash escapes echo -e interprets.
var echoEscapes = strings.NewReplacer(`\n`, "\n", `\t`, "\t", `\\`, `\`)

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

func builtinGrep(in *Interp, io *IO, args []string) int {
	quiet, invert, count, ignoreCase, only := false, false, false, false, false
	var pattern string
	var files []string
	havePattern := false
	for i := 0; i < len(args); i++ {
		a := args[i]
		switch {
		case len(a) > 1 && a[0] == '-' && strings.Trim(a[1:], "qvcioE") == "":
			// One flag or several combined (-qi, -io); -E is the
			// default syntax already.
			for _, f := range a[1:] {
				switch f {
				case 'q':
					quiet = true
				case 'v':
					invert = true
				case 'c':
					count = true
				case 'i':
					ignoreCase = true
				case 'o':
					only = true
				}
			}
		case a == "-e":
			if i+1 < len(args) {
				pattern = args[i+1]
				havePattern = true
				i++
			}
		case a == "-m":
			i++ // max-count: with our small outputs, safely ignored
		case strings.HasPrefix(a, "-"):
			// Unknown flag: ignore, matching the forgiving scripts.
		case !havePattern:
			pattern = a
			havePattern = true
		default:
			files = append(files, a)
		}
	}
	if !havePattern {
		fmt.Fprintln(io.Err, "usage: grep [-qvcio] pattern [file...]")
		return 2
	}
	matcher := compileGrep(pattern, ignoreCase)
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
		hit := matcher.match(line)
		if invert {
			hit = !hit
		}
		if !hit {
			continue
		}
		matched++
		if quiet || count {
			continue
		}
		if only && !invert {
			for _, m := range matcher.findAll(line) {
				fmt.Fprintln(io.Out, m)
			}
		} else {
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

type grepMatcher struct {
	re      *regexp.Regexp
	literal string
	fold    bool
}

// grepKey is what a matcher is a pure function of.
type grepKey struct {
	pattern string
	fold    bool
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

// grepMatchers holds each matcher the first time a script asks for it.
var (
	grepSeed     = maphash.MakeSeed()
	grepMatchers = memo.NewLRU[grepKey, grepMatcher](grepHash, grepBudget)
)

// grepHash is the pattern's hash, inverted under -i, so that a pattern
// with and without -i hold distinct fingerprints.
func grepHash(k grepKey) uint64 {
	h := maphash.String(grepSeed, k.pattern)
	if k.fold {
		h = ^h
	}
	return h
}

func compileGrep(pattern string, ignoreCase bool) grepMatcher {
	m, _, _ := grepMatchers.Do(grepKey{pattern, ignoreCase}, func() (grepMatcher, int64, error) {
		p := pattern
		if ignoreCase {
			p = "(?i)" + p
		}
		m := grepMatcher{literal: pattern, fold: ignoreCase}
		if re, err := regexp.Compile(p); err == nil {
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
	if g.fold {
		return strings.Contains(strings.ToLower(line), strings.ToLower(g.literal))
	}
	return strings.Contains(line, g.literal)
}

func (g grepMatcher) findAll(line string) []string {
	if g.re != nil {
		return g.re.FindAllString(line, -1)
	}
	if g.match(line) {
		return []string{g.literal}
	}
	return nil
}

func builtinSleep(in *Interp, io *IO, args []string) int {
	if len(args) == 0 {
		return 0
	}
	d, err := parseDuration(args[0])
	if err != nil {
		fmt.Fprintf(io.Err, "sleep: invalid time interval %q\n", args[0])
		return 1
	}
	in.Advance(d)
	return 0
}

// parseDuration accepts bash sleep/timeout formats: "15", "0.5", "8s",
// "2m", "1h".
func parseDuration(s string) (time.Duration, error) {
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return time.Duration(f * float64(time.Second)), nil
	}
	return time.ParseDuration(s)
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
	d, err := parseDuration(args[i])
	if err != nil {
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
