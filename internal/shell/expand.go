package shell

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// A word is compiled once, by Parse, into everything about it that
// does not depend on run-time state: where its quotes, escapes and
// $-forms are, which variable each names, the parsed body of each
// command substitution. What is left for a run is to look up the
// variables, execute the substitutions and assemble the result — no
// byte of the word's source text is scanned again.
//
// A word whose segments are all literal (the great majority: command
// names, flags, file names, quoted constants) expands to the same
// thing on every run, so the parser also stores that expansion, in the
// one rendition its position reads: argv fields for a command word or
// a for-list item, the unsplit text for an assignment, a redirect
// target or a condition operand, the glob pattern for the right-hand
// side of == and != inside [[ ]].
type word struct {
	// raw is the source text, kept for the words of [[ ]] only, whose
	// operators are recognised by it.
	raw  string
	segs []segment // what a run evaluates, in order; nil when lit
	lit  bool      // every segment was literal

	// Renditions of a literal word, each set only by the parser of a
	// position that reads it.
	fields []string
	text   string
	pat    string
}

type segKind uint8

const (
	segLit    segKind = iota // text, verbatim
	segVar                   // $NAME, ${NAME}: text is the name
	segStatus                // $?
	segArith                 // $((text))
	segSub                   // $(...): sub is the parsed body
	segErr                   // err, raised when evaluation gets here
)

// segment is one piece of a word. Quoted pieces never undergo field
// splitting, and their glob metacharacters match literally.
//
// A word the scanner cannot finish (an unterminated quote, a
// substitution whose body does not parse) ends in a segErr instead of
// failing the parse: the error belongs to the run that reaches it, on
// that command's stderr, after the substitutions before it in the same
// word have had their side effects.
type segment struct {
	kind   segKind
	quoted bool
	text   string
	sub    *Program
	err    error
}

// maxSubDepth bounds how deeply command substitutions may nest in one
// script. Compiling a word parses the bodies of its substitutions, so
// the parser recurses once per level; scripts people write nest two or
// three deep.
const maxSubDepth = 64

// compileWord scans a raw word into segments, interpreting quotes,
// backslashes, variables, command and arithmetic substitution. depth
// is the substitution nesting level of the script the word is in.
func compileWord(raw string, depth int) []segment {
	b := segBuilder{depth: depth}
	i := 0
	for i < len(raw) && !b.failed {
		switch raw[i] {
		case '\'':
			end := strings.IndexByte(raw[i+1:], '\'')
			if end < 0 {
				b.fail(errors.New("unterminated single quote"))
				break
			}
			b.literal(raw[i+1:i+1+end], true)
			i += end + 2
		case '"':
			i += b.doubleQuoted(raw[i:])
		case '\\':
			if i+1 < len(raw) {
				b.literal(raw[i+1:i+2], true)
				i += 2
			} else {
				i++
			}
		case '$':
			i += b.dollar(raw[i:], false)
		default:
			j := i + 1
			for j < len(raw) && !strings.ContainsRune("'\"\\$", rune(raw[j])) {
				j++
			}
			b.literal(raw[i:j], false)
			i = j
		}
	}
	return b.finish()
}

// segBuilder accumulates a word's segments, merging adjacent literal
// text of the same quotedness into one segment.
type segBuilder struct {
	segs   []segment
	depth  int
	failed bool

	// The literal being accumulated: text alone while it is one piece
	// of the source, buf once a second piece joins it.
	pending bool
	quoted  bool
	text    string
	buf     strings.Builder
}

func (b *segBuilder) literal(text string, quoted bool) {
	if b.pending && b.quoted != quoted {
		b.flush()
	}
	if !b.pending {
		// An empty quoted literal still makes a field; an empty
		// unquoted one is nothing.
		if text != "" || quoted {
			b.pending, b.quoted, b.text = true, quoted, text
		}
		return
	}
	if b.buf.Len() == 0 {
		b.buf.WriteString(b.text)
	}
	b.buf.WriteString(text)
}

func (b *segBuilder) flush() {
	if !b.pending {
		return
	}
	text := b.text
	if b.buf.Len() > 0 {
		text = b.buf.String()
		b.buf.Reset()
	}
	b.segs = append(b.segs, segment{kind: segLit, quoted: b.quoted, text: text})
	b.pending = false
}

func (b *segBuilder) add(s segment, quoted bool) {
	switch s.kind {
	case segLit:
		b.literal(s.text, quoted)
	case segErr:
		b.fail(s.err)
	default:
		b.flush()
		s.quoted = quoted
		b.segs = append(b.segs, s)
	}
}

// fail ends the word: nothing after a scan error is ever evaluated.
func (b *segBuilder) fail(err error) {
	b.flush()
	b.segs = append(b.segs, segment{kind: segErr, err: err})
	b.failed = true
}

func (b *segBuilder) finish() []segment {
	b.flush()
	return b.segs
}

// dollar compiles the $-form at the start of s and returns the bytes
// it spans.
func (b *segBuilder) dollar(s string, quoted bool) int {
	seg, n := compileDollar(s, b.depth)
	b.add(seg, quoted)
	return n
}

// doubleQuoted compiles the double-quoted string at the start of s and
// returns the bytes it spans, both quotes included. The closing quote
// is found first: an unterminated string is an error before anything
// inside it runs.
func (b *segBuilder) doubleQuoted(s string) int {
	end := 1
	for end < len(s) && s[end] != '"' {
		if s[end] == '\\' {
			end++
		}
		end++
	}
	if end >= len(s) {
		b.fail(errors.New("unterminated double quote"))
		return 0
	}
	content := s[1:end]
	if content == "" {
		b.literal("", true)
	}
	for i := 0; i < len(content) && !b.failed; {
		switch content[i] {
		case '\\':
			if i+1 < len(content) && strings.ContainsRune("$`\"\\", rune(content[i+1])) {
				b.literal(content[i+1:i+2], true)
				i += 2
			} else {
				b.literal(`\`, true)
				i++
			}
		case '$':
			i += b.dollar(content[i:], true)
		default:
			j := i + 1
			for j < len(content) && !strings.ContainsRune("\\$", rune(content[j])) {
				j++
			}
			b.literal(content[i:j], true)
			i = j
		}
	}
	return end + 1
}

// compileDollar compiles the one $-form at the start of s, returning
// the segment and the bytes consumed. A form it cannot scan comes back
// as a segErr.
func compileDollar(s string, depth int) (segment, int) {
	if len(s) < 2 {
		return segment{kind: segLit, text: "$"}, 1
	}
	switch {
	case strings.HasPrefix(s, "$(("):
		inner, n, err := balanced(s[1:], "((", "))")
		if err != nil {
			return segment{kind: segErr, err: err}, 0
		}
		return segment{kind: segArith, text: inner}, 1 + n
	case strings.HasPrefix(s, "$("):
		inner, n, err := balanced(s[1:], "(", ")")
		if err != nil {
			return segment{kind: segErr, err: err}, 0
		}
		return compileSub(inner, depth), 1 + n
	case strings.HasPrefix(s, "${"):
		inner, n, err := balanced(s[1:], "{", "}")
		if err != nil {
			return segment{kind: segErr, err: err}, 0
		}
		return compileParam(inner), 1 + n
	case s[1] == '?':
		return segment{kind: segStatus}, 2
	case s[1] == '#':
		return segment{kind: segLit, text: "0"}, 2
	}
	j := 1
	for j < len(s) && (s[j] == '_' || s[j] >= 'a' && s[j] <= 'z' || s[j] >= 'A' && s[j] <= 'Z' || s[j] >= '0' && s[j] <= '9') {
		j++
	}
	if j == 1 {
		return segment{kind: segLit, text: "$"}, 1
	}
	return segment{kind: segVar, text: s[1:j]}, j
}

// compileParam handles ${NAME}, the one parameter expansion scripts
// write; any other form, ${#NAME} and ${NAME:-alt} among them, is an
// error naming it.
func compileParam(inner string) segment {
	if inner == "" || strings.Trim(inner, nameChars) != "" {
		return segment{kind: segErr, err: fmt.Errorf("${%s} is not supported: use ${NAME}", inner)}
	}
	return segment{kind: segVar, text: inner}
}

const nameChars = "_abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"

// compileSub parses the body of a command substitution. A body that
// does not parse, or that nests past maxSubDepth, is an error of the
// run that evaluates the substitution.
func compileSub(body string, depth int) segment {
	if depth >= maxSubDepth {
		return segment{kind: segErr, err: fmt.Errorf("command substitution nested more than %d deep", maxSubDepth)}
	}
	prog, err := parse(body, depth+1)
	if err != nil {
		return segment{kind: segErr, err: err}
	}
	return segment{kind: segSub, sub: prog}
}

// balanced extracts the content between open..close starting at s[0].
func balanced(s, open, close string) (string, int, error) {
	if !strings.HasPrefix(s, open) {
		return "", 0, fmt.Errorf("expected %q", open)
	}
	depth := 1
	i := len(open)
	for i < len(s) {
		switch {
		case s[i] == '\'':
			end := strings.IndexByte(s[i+1:], '\'')
			if end < 0 {
				return "", 0, fmt.Errorf("unterminated quote in substitution")
			}
			i += end + 2
		case strings.HasPrefix(s[i:], close) && depth == 1:
			return s[len(open):i], i + len(close), nil
		case strings.HasPrefix(s[i:], open):
			depth++
			i += len(open)
		case strings.HasPrefix(s[i:], close):
			depth--
			i += len(close)
		default:
			i++
		}
	}
	return "", 0, fmt.Errorf("unterminated %s...%s", open, close)
}

// literalOnly evaluates segments that need no interpreter: the parser
// uses it to precompute the renditions of literal words with the same
// assemblers a run uses.
var literalOnly *Interp

func allLiteral(segs []segment) bool {
	for i := range segs {
		if segs[i].kind != segLit {
			return false
		}
	}
	return true
}

// argWord compiles a word whose expansion is split into argv fields.
func argWord(raw string, depth int) word {
	segs := compileWord(raw, depth)
	if !allLiteral(segs) {
		return word{segs: segs}
	}
	w := word{lit: true}
	w.fields, _ = literalOnly.appendFields(nil, segs)
	return w
}

// textWord compiles a word whose expansion is used unsplit; pattern
// asks for its glob rendition too.
func textWord(raw string, depth int, pattern bool) word {
	segs := compileWord(raw, depth)
	if !allLiteral(segs) {
		return word{segs: segs}
	}
	w := word{lit: true}
	w.text, _ = literalOnly.join(segs, false)
	if pattern {
		w.pat, _ = literalOnly.join(segs, true)
	}
	return w
}

// value evaluates one segment.
func (in *Interp) value(s *segment) (string, error) {
	switch s.kind {
	case segLit:
		return s.text, nil
	case segVar:
		return in.Env[s.text], nil
	case segStatus:
		return strconv.Itoa(in.lastExit), nil
	case segArith:
		v, err := in.evalArith(s.text)
		if err != nil {
			return "", err
		}
		return strconv.FormatInt(v, 10), nil
	case segSub:
		return in.captureSub(s.sub), nil
	}
	return "", s.err
}

// captureSub runs a command substitution and returns its stdout with
// trailing newlines trimmed; its stderr is discarded unwritten.
func (in *Interp) captureSub(prog *Program) string {
	io := in.getIO()
	io.Err = discard
	in.execList(prog.stmts, io)
	out := string(bytes.TrimRight(io.out.buf, "\n"))
	in.putIO(io)
	return out
}

// expandFields appends the argv fields a word expands to: unquoted
// expansion results undergo IFS whitespace splitting, quoted parts do
// not.
func (in *Interp) expandFields(argv []string, w *word) ([]string, error) {
	if w.lit {
		return append(argv, w.fields...), nil
	}
	return in.appendFields(argv, w.segs)
}

func (in *Interp) appendFields(argv []string, segs []segment) ([]string, error) {
	if len(segs) == 1 {
		// One segment needs no assembly: "$x" is one field whatever it
		// holds, and the fields of $x are substrings of its value.
		v, err := in.value(&segs[0])
		if err != nil {
			return nil, err
		}
		if segs[0].quoted {
			return append(argv, v), nil
		}
		for v != "" {
			idx := strings.IndexAny(v, " \t\n")
			if idx < 0 {
				return append(argv, v), nil
			}
			if idx > 0 {
				argv = append(argv, v[:idx])
			}
			v = strings.TrimLeft(v[idx:], " \t\n")
		}
		return argv, nil
	}
	// A field assembled from several fragments is accumulated in a
	// builder, so it costs one final allocation.
	var cur strings.Builder
	open := false // a field is being accumulated
	for i := range segs {
		v, err := in.value(&segs[i])
		if err != nil {
			return nil, err
		}
		if segs[i].quoted {
			cur.WriteString(v)
			open = true
			continue
		}
		for len(v) > 0 {
			idx := strings.IndexAny(v, " \t\n")
			if idx < 0 {
				cur.WriteString(v)
				open = true
				break
			}
			if idx > 0 {
				cur.WriteString(v[:idx])
				open = true
			}
			if open {
				argv = append(argv, cur.String())
				cur.Reset()
				open = false
			}
			v = strings.TrimLeft(v[idx:], " \t\n")
		}
	}
	if open {
		argv = append(argv, cur.String())
	}
	return argv, nil
}

// expandOne expands a word into a single string with no field
// splitting (assignments, redirect targets, condition operands).
func (in *Interp) expandOne(w *word) (string, error) {
	if w.lit {
		return w.text, nil
	}
	return in.join(w.segs, false)
}

// expandPattern expands a word for use as a glob pattern: text that was
// quoted has its glob metacharacters escaped so only unquoted * and ?
// act as wildcards.
func (in *Interp) expandPattern(w *word) (string, error) {
	if w.lit {
		return w.pat, nil
	}
	return in.join(w.segs, true)
}

func (in *Interp) join(segs []segment, pattern bool) (string, error) {
	if len(segs) == 1 {
		v, err := in.value(&segs[0])
		if pattern && segs[0].quoted {
			v = escapeGlob(v)
		}
		return v, err
	}
	var b strings.Builder
	for i := range segs {
		v, err := in.value(&segs[i])
		if err != nil {
			return "", err
		}
		if pattern && segs[i].quoted {
			v = escapeGlob(v)
		}
		b.WriteString(v)
	}
	return b.String(), nil
}

func escapeGlob(s string) string {
	if !strings.ContainsAny(s, `*?[]\`) {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '*', '?', '[', ']', '\\':
			b.WriteByte('\\')
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

// globMatch matches s against a pattern supporting *, ? and backslash
// escapes. Unlike path.Match, '*' crosses every character including '/'.
func globMatch(pattern, s string) bool {
	return globMatchAt(pattern, s)
}

func globMatchAt(p, s string) bool {
	for len(p) > 0 {
		switch p[0] {
		case '*':
			p = p[1:]
			if len(p) == 0 {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if globMatchAt(p, s[i:]) {
					return true
				}
			}
			return false
		case '?':
			if len(s) == 0 {
				return false
			}
			p, s = p[1:], s[1:]
		case '\\':
			if len(p) < 2 || len(s) == 0 || p[1] != s[0] {
				return false
			}
			p, s = p[2:], s[1:]
		default:
			if len(s) == 0 || p[0] != s[0] {
				return false
			}
			p, s = p[1:], s[1:]
		}
	}
	return len(s) == 0
}
