package shell

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"
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

// builtinGrep is grep as the corpus runs it, a pattern over one file
// or stdin with -q, and as the counting idiom runs it, with -c. Every
// corpus pattern is literal text in which '.' is any one character,
// which basic and extended syntax read alike, so that is the pattern
// language and -E is accepted; a pattern holding any other
// metacharacter is refused by name, and so is any other option. No
// corpus script passes more than one file, so that is refused too:
// grep would prefix each line with its file's name and count per file.
func builtinGrep(in *Interp, io *IO, args []string) int {
	quiet, count := false, false
	at, file := -1, -1 // the pattern's and the file's index in args
	for i, a := range args {
		switch {
		case isOption(a) && strings.Trim(a[1:], "qcE") == "":
			quiet = quiet || strings.Contains(a, "q")
			count = count || strings.Contains(a, "c")
		case isOption(a):
			fmt.Fprintf(io.Err, "grep: %s is not supported\n", a)
			return 2
		case at < 0:
			at = i
		case file < 0:
			file = i
		default:
			io.Err.WriteString("grep: more than one file is not supported\n")
			return 2
		}
	}
	if at < 0 {
		fmt.Fprintln(io.Err, "usage: grep [-qcE] pattern [file]")
		return 2
	}
	pattern := args[at]
	if i := strings.IndexAny(pattern, grepMeta); i >= 0 {
		fmt.Fprintf(io.Err, "grep: %q in %q is not supported: a pattern is literal text and '.'\n", pattern[i:i+1], pattern)
		return 2
	}
	if !utf8.ValidString(pattern) {
		fmt.Fprintf(io.Err, "grep: %q is not valid UTF-8\n", pattern)
		return 2
	}
	text := io.In
	if file >= 0 {
		var ok bool
		if text, ok = in.FS[args[file]]; !ok {
			fmt.Fprintf(io.Err, "grep: %s: No such file or directory\n", args[file])
			return 2
		}
	}
	matched := grepLines(io.Out, text, pattern, !quiet && !count)
	if count {
		io.Out.WriteInt(matched)
		io.Out.WriteByte('\n')
	}
	if matched > 0 {
		return 0
	}
	return 1
}

func isOption(arg string) bool { return len(arg) > 1 && arg[0] == '-' }

// grepMeta are the characters that make a pattern more than literal
// text and '.' in basic syntax, extended syntax or both, and the
// newline that separates patterns in either.
const grepMeta = "\\[]*^$+?(){}|\n"

// grepLines writes each line of text that holds pattern to out if
// show, and returns how many there are. Empty text is no lines, and a
// last line needs no newline.
func grepLines(out *Stream, text, pattern string, show bool) int {
	n := 0
	for text != "" {
		line := text
		if i := strings.IndexByte(text, '\n'); i >= 0 {
			line, text = text[:i], text[i+1:]
		} else {
			text = ""
		}
		if grepMatch(line, pattern) {
			n++
			if show {
				out.WriteStrings(line, "\n")
			}
		}
	}
	return n
}

// grepMatch reports whether line holds pattern, literal text in which
// '.' is any one character. It steps a character at a time, as a
// regexp does, so a byte that is not UTF-8 is one character, U+FFFD.
func grepMatch(line, pattern string) bool {
	for {
		s, p := line, pattern
		for p != "" {
			r, w := utf8.DecodeRuneInString(s)
			q, qw := utf8.DecodeRuneInString(p)
			if s == "" || q != '.' && q != r {
				break
			}
			s, p = s[w:], p[qw:]
		}
		if p == "" {
			return true
		}
		if line == "" {
			return false
		}
		_, w := utf8.DecodeRuneInString(line)
		line = line[w:]
	}
}

func builtinSleep(in *Interp, io *IO, args []string) int {
	if len(args) == 0 {
		io.Err.WriteString("sleep: missing operand\n")
		return 1
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
	// A bare number ends in a digit or '.'; one with a unit does not.
	if s != "" && strings.IndexByte("0123456789.", s[len(s)-1]) >= 0 {
		f, err := strconv.ParseFloat(s, 64)
		secs := f * float64(time.Second)
		return time.Duration(secs), err == nil && secs >= 0 && secs < math.MaxInt64
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
	lines, input, haveFile := false, io.In, false
	for _, a := range args {
		if a == "-l" {
			lines = true
		} else if !strings.HasPrefix(a, "-") && !haveFile {
			input, haveFile = in.FS[a], true
		}
	}
	n := 0
	if input != "" {
		n = strings.Count(input, "\n")
		if !strings.HasSuffix(input, "\n") {
			n++
		}
	}
	io.Out.WriteInt(n)
	if !lines {
		io.Out.WriteByte(' ')
		io.Out.WriteInt(len(strings.Fields(input)))
		io.Out.WriteByte(' ')
		io.Out.WriteInt(len(input))
	}
	io.Out.WriteByte('\n')
	return 0
}

func builtinHead(in *Interp, io *IO, args []string) int {
	n, input, haveFile := 10, io.In, false
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
		case !haveFile:
			input, haveFile = in.FS[a], true
		}
	}
	lines := strings.Split(strings.TrimSuffix(input, "\n"), "\n")
	if n < 0 {
		n = max(len(lines)+n, 0) // -n -K: all but the last K
	}
	if n < len(lines) {
		lines = lines[:n]
	}
	for _, ln := range lines {
		io.Out.WriteStrings(ln, "\n")
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
