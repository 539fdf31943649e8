// Package shell implements the subset of bash that CloudEval-YAML unit
// test scripts are written in: pipelines, && / || / ; lists, if/elif/
// else, for and while loops, [[ ]] and [ ] conditionals, (( )) and
// $(( )) sums, variable and command substitution, pattern matching, and
// redirects onto an in-memory filesystem.
//
// A script is compiled once and run many times. Parse produces an
// immutable Program in which every word is already split into its
// literal text, variable references and command substitutions (see
// word in expand.go), all-literal words carry their expansion and
// all-literal commands their finished argv; running it looks variables
// up, executes substitutions and assembles fields, and never scans the
// source again. One Program may be run by any number of interpreters
// at once: a benchmark problem keeps its unit test's (see unittest.Run).
//
// The interpreter is deliberately hermetic: no real processes, no real
// files, no real time. Commands are Go builtins; "sleep" advances a
// virtual clock supplied by the embedder; kubectl, helm, docker compose
// and the rest are registered by each workload family against its
// simulator, parsing their flags with ParseFlags, and curl is Curl over
// the family's probe.
//
// What the shell reads is decided statement by statement: a construct
// stays if a corpus script reaches it (ci/oracle-reach.txt counts the
// statements the corpus runs in each function), if it serves one of
// the paper's idioms (polling loops, counting with wc, head and
// grep -c), or if it reports an error in a script. The grammar is kept
// whole; a form outside the kept vocabulary, such as $((a*b)), ${#x},
// grep -v or [ -f x ], fails with an error naming it rather than being
// read as something else (DESIGN.md §2.6).
package shell

import (
	"fmt"
	"strings"
)

type tokenKind int

const (
	tokWord  tokenKind = iota
	tokOp              // && || | ; ( )
	tokRedir           // > >> < >&
	tokNewline
	tokEOF
)

type token struct {
	kind tokenKind
	text string // raw text for words; op text for ops
	fd   int    // redirect source fd (default 1 for >, 0 for <)
	line int
}

func (t token) String() string {
	switch t.kind {
	case tokNewline:
		return "<newline>"
	case tokEOF:
		return "<eof>"
	default:
		return t.text
	}
}

type lexer struct {
	src  string
	pos  int
	line int
	toks []token
}

// lex splits a script into tokens. Words keep their raw text (quotes,
// $ expansions and all); the parser compiles them.
func lex(src string) ([]token, error) {
	l := &lexer{src: src, line: 1}
	for {
		l.skipBlanks()
		if l.pos >= len(l.src) {
			l.emit(token{kind: tokEOF, line: l.line})
			return l.toks, nil
		}
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.pos++
			l.emit(token{kind: tokNewline, line: l.line})
			l.line++
		case c == '#':
			l.skipComment()
		case c == '\\' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '\n':
			// Line continuation.
			l.pos += 2
			l.line++
		case strings.HasPrefix(l.src[l.pos:], "&&"):
			l.pos += 2
			l.emit(token{kind: tokOp, text: "&&", line: l.line})
		case strings.HasPrefix(l.src[l.pos:], "||"):
			l.pos += 2
			l.emit(token{kind: tokOp, text: "||", line: l.line})
		case c == ';':
			l.pos++
			l.emit(token{kind: tokOp, text: ";", line: l.line})
		case c == '|':
			l.pos++
			l.emit(token{kind: tokOp, text: "|", line: l.line})
		case c == '&':
			// Background execution is treated as sequential.
			l.pos++
			l.emit(token{kind: tokOp, text: ";", line: l.line})
		case c == '>' || c == '<':
			l.lexRedir(1)
		case c >= '0' && c <= '9' && l.pos+1 < len(l.src) && (l.src[l.pos+1] == '>' || l.src[l.pos+1] == '<') && l.atWordStart():
			fd := int(c - '0')
			l.pos++
			l.lexRedir(fd)
		case strings.HasPrefix(l.src[l.pos:], "((") && l.atCommandStart():
			if err := l.lexArith(); err != nil {
				return nil, err
			}
		default:
			if err := l.lexWord(); err != nil {
				return nil, err
			}
		}
	}
}

func (l *lexer) emit(t token) { l.toks = append(l.toks, t) }

func (l *lexer) skipBlanks() {
	for l.pos < len(l.src) && (l.src[l.pos] == ' ' || l.src[l.pos] == '\t' || l.src[l.pos] == '\r') {
		l.pos++
	}
}

func (l *lexer) skipComment() {
	for l.pos < len(l.src) && l.src[l.pos] != '\n' {
		l.pos++
	}
}

// atWordStart reports whether the previous token does not butt up
// against this position (so "2>" is a redirect, but "file2>" is not).
func (l *lexer) atWordStart() bool {
	if l.pos == 0 {
		return true
	}
	prev := l.src[l.pos-1]
	return prev == ' ' || prev == '\t' || prev == '\n' || prev == ';' || prev == '|' || prev == '&'
}

// atCommandStart reports whether the next token would begin a command.
func (l *lexer) atCommandStart() bool {
	for i := len(l.toks) - 1; i >= 0; i-- {
		switch l.toks[i].kind {
		case tokNewline:
			return true
		case tokOp:
			return true
		case tokWord:
			return false
		}
	}
	return true
}

func (l *lexer) lexRedir(fd int) {
	start := l.pos
	c := l.src[l.pos]
	op := string(c)
	l.pos++
	if c == '>' && l.pos < len(l.src) && l.src[l.pos] == '>' {
		op = ">>"
		l.pos++
	} else if c == '>' && l.pos < len(l.src) && l.src[l.pos] == '&' {
		op = ">&"
		l.pos++
	}
	if c == '<' {
		fd = 0
	}
	_ = start
	l.emit(token{kind: tokRedir, text: op, fd: fd, line: l.line})
}

// lexArith captures "(( ... ))" as a single word including delimiters.
func (l *lexer) lexArith() error {
	start := l.pos
	l.pos += 2
	depth := 0
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '(' {
			depth++
		} else if c == ')' {
			if depth > 0 {
				depth--
			} else if l.pos+1 < len(l.src) && l.src[l.pos+1] == ')' {
				l.pos += 2
				l.emit(token{kind: tokWord, text: l.src[start:l.pos], line: l.line})
				return nil
			}
		} else if c == '\n' {
			l.line++
		}
		l.pos++
	}
	return fmt.Errorf("shell: line %d: unterminated (( )) expression", l.line)
}

// lexWord scans one word, tracking quotes and $-substitutions so that
// operators inside them do not split the word. Newlines inside quotes
// are preserved (heredoc-style echo arguments span lines).
func (l *lexer) lexWord() error {
	start := l.pos
	startLine := l.line
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch c {
		case ' ', '\t', '\r', '\n', ';', '&', '|', '<':
			return l.finishWord(start, startLine)
		case '>':
			return l.finishWord(start, startLine)
		case '#':
			// '#' only starts a comment at the start of a word.
			if l.pos == start {
				l.skipComment()
				return nil
			}
			l.pos++
		case '\'':
			if err := l.scanSingle(); err != nil {
				return err
			}
		case '"':
			if err := l.scanDouble(); err != nil {
				return err
			}
		case '`':
			return l.backtick()
		case '\\':
			// A backslash that ends the script escapes nothing.
			l.pos = min(l.pos+2, len(l.src))
		case '$':
			if err := l.scanDollar(); err != nil {
				return err
			}
		default:
			l.pos++
		}
	}
	return l.finishWord(start, startLine)
}

func (l *lexer) finishWord(start, line int) error {
	if l.pos > start {
		l.emit(token{kind: tokWord, text: l.src[start:l.pos], line: line})
	}
	return nil
}

func (l *lexer) scanSingle() error {
	startLine := l.line
	l.pos++ // opening quote
	for l.pos < len(l.src) {
		if l.src[l.pos] == '\n' {
			l.line++
		}
		if l.src[l.pos] == '\'' {
			l.pos++
			return nil
		}
		l.pos++
	}
	return fmt.Errorf("shell: line %d: unterminated single quote", startLine)
}

func (l *lexer) scanDouble() error {
	startLine := l.line
	l.pos++ // opening quote
	for l.pos < len(l.src) {
		switch l.src[l.pos] {
		case '\n':
			l.line++
			l.pos++
		case '\\':
			l.pos += 2
		case '$':
			if err := l.scanDollar(); err != nil {
				return err
			}
		case '`':
			return l.backtick()
		case '"':
			l.pos++
			return nil
		default:
			l.pos++
		}
	}
	return fmt.Errorf("shell: line %d: unterminated double quote", startLine)
}

// backtick refuses the `...` form of command substitution: $(...) is
// the one spelling, and a backslash-escaped backtick is a literal one.
func (l *lexer) backtick() error {
	return fmt.Errorf("shell: line %d: `...` command substitution is not supported: use $(...)", l.line)
}

// scanDollar consumes $VAR, ${...}, $(...), $((...)).
func (l *lexer) scanDollar() error {
	l.pos++ // '$'
	if l.pos >= len(l.src) {
		return nil
	}
	switch l.src[l.pos] {
	case '(':
		// $(( or $(
		if strings.HasPrefix(l.src[l.pos:], "((") {
			return l.scanBalanced("((", "))")
		}
		return l.scanBalanced("(", ")")
	case '{':
		return l.scanBalanced("{", "}")
	default:
		for l.pos < len(l.src) && isVarChar(l.src[l.pos]) {
			l.pos++
		}
		// $?, $#, $0-9 single-char specials.
		return nil
	}
}

func (l *lexer) scanBalanced(open, close string) error {
	startLine := l.line
	l.pos += len(open)
	depth := 1
	for l.pos < len(l.src) {
		switch {
		case l.src[l.pos] == '\n':
			l.line++
			l.pos++
		case l.src[l.pos] == '\'':
			if err := l.scanSingle(); err != nil {
				return err
			}
		case l.src[l.pos] == '"':
			if err := l.scanDouble(); err != nil {
				return err
			}
		case strings.HasPrefix(l.src[l.pos:], close) && depth == 1:
			l.pos += len(close)
			return nil
		case strings.HasPrefix(l.src[l.pos:], open):
			depth++
			l.pos += len(open)
		case strings.HasPrefix(l.src[l.pos:], close):
			depth--
			l.pos += len(close)
		default:
			l.pos++
		}
	}
	return fmt.Errorf("shell: line %d: unterminated %s...%s", startLine, open, close)
}

func isVarChar(c byte) bool {
	return c == '_' || c == '?' || c == '#' ||
		c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}
