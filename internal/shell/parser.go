package shell

import (
	"fmt"
	"strings"
)

// AST node types. The grammar, smallest to largest:
//
//	program  := list EOF
//	list     := andOr ((";" | newline)+ andOr)*
//	andOr    := pipeline (("&&" | "||") pipeline)*
//	pipeline := command ("|" command)*
//	command  := ifCmd | forCmd | whileCmd | condCmd | arithCmd | simple
type (
	node interface{ nodeTag() }

	andOr struct {
		left  node
		op    string // "&&" or "||"
		right node
	}

	pipeline struct{ cmds []node }

	simpleCmd struct {
		assigns []assign
		words   []word
		// argv is the finished argument vector of a command whose words
		// are all literal, and words is then nil. Every run of the
		// script, on any goroutine, hands this one slice to the builtin:
		// nothing may write to it, and cap == len makes an append copy.
		argv   []string
		redirs []redir
		line   int
	}

	ifCmd struct {
		cond     []node
		then     []node
		elifs    []elifClause
		elseBody []node
	}

	elifClause struct {
		cond []node
		then []node
	}

	forCmd struct {
		varName string
		items   []word
		body    []node
	}

	whileCmd struct {
		cond []node
		body []node
	}

	condCmd struct { // [[ ... ]]
		words []word
		line  int
	}

	notCmd struct{ cmd node } // ! command

	arithCmd struct { // (( ... ))
		expr string
		line int
	}
)

func (andOr) nodeTag()     {}
func (pipeline) nodeTag()  {}
func (simpleCmd) nodeTag() {}
func (ifCmd) nodeTag()     {}
func (forCmd) nodeTag()    {}
func (whileCmd) nodeTag()  {}
func (condCmd) nodeTag()   {}
func (arithCmd) nodeTag()  {}
func (notCmd) nodeTag()    {}

type assign struct {
	name string
	val  word
}

type redir struct {
	fd     int    // source fd
	op     string // > >> < >&
	target word
}

// Program is a compiled script. It carries no interpreter state, so it
// is immutable and may be executed by any number of interpreters at
// once: every piece of mutable state (variables, the virtual FS, step
// counts, exit flags, the IO free list) lives in the Interp, and the
// argv an all-literal command shares with every run is only ever read.
type Program struct {
	stmts []node
	lines []int // the line each of stmts starts on
}

// Parse compiles a script into its AST, words included: see word for
// what is decided here and what is left to a run.
func Parse(src string) (*Program, error) { return parse(src, 0) }

// parse compiles a script that sits depth command substitutions deep
// in the one handed to Parse.
func parse(src string, depth int) (*Program, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, depth: depth}
	return p.parseProgram()
}

type parser struct {
	toks  []token
	pos   int
	depth int
}

func (p *parser) peek() token { return p.toks[p.pos] }

// next consumes a token; the EOF that ends the stream is handed out
// again and again, so a construct cut short never runs off the end.
func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("shell: line %d: %s", p.peek().line, fmt.Sprintf(format, args...))
}

func (p *parser) skipSeparators() {
	for p.peek().kind == tokNewline || p.peek().kind == tokOp && p.peek().text == ";" {
		p.pos++
	}
}

func (p *parser) parseProgram() (*Program, error) {
	prog := &Program{}
	for p.skipSeparators(); p.peek().kind != tokEOF; p.skipSeparators() {
		prog.lines = append(prog.lines, p.peek().line)
		stmt, err := p.parseAndOr(nil)
		if err != nil {
			return nil, err
		}
		prog.stmts = append(prog.stmts, stmt)
	}
	return prog, nil
}

// parseList parses statements until EOF or one of the stop keywords
// (then, fi, do, done, else, elif) appears in command position.
func (p *parser) parseList(stops []string) ([]node, error) {
	var stmts []node
	for {
		p.skipSeparators()
		t := p.peek()
		if t.kind == tokEOF {
			return stmts, nil
		}
		if t.kind == tokWord && contains(stops, t.text) {
			return stmts, nil
		}
		stmt, err := p.parseAndOr(stops)
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, stmt)
	}
}

func (p *parser) parseAndOr(stops []string) (node, error) {
	left, err := p.parsePipeline(stops)
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokOp || t.text != "&&" && t.text != "||" {
			return left, nil
		}
		op := p.next().text
		// Allow a newline after && / ||.
		for p.peek().kind == tokNewline {
			p.pos++
		}
		right, err := p.parsePipeline(stops)
		if err != nil {
			return nil, err
		}
		left = &andOr{left: left, op: op, right: right}
	}
}

func (p *parser) parsePipeline(stops []string) (node, error) {
	first, err := p.parseCommand(stops)
	if err != nil {
		return nil, err
	}
	cmds := []node{first}
	for p.peek().kind == tokOp && p.peek().text == "|" {
		p.next()
		for p.peek().kind == tokNewline {
			p.pos++
		}
		cmd, err := p.parseCommand(stops)
		if err != nil {
			return nil, err
		}
		cmds = append(cmds, cmd)
	}
	if len(cmds) == 1 {
		return first, nil
	}
	return &pipeline{cmds: cmds}, nil
}

func (p *parser) parseCommand(stops []string) (node, error) {
	t := p.peek()
	if t.kind != tokWord {
		return nil, p.errf("expected command, got %q", t)
	}
	switch {
	case t.text == "!":
		p.next()
		inner, err := p.parseCommand(stops)
		if err != nil {
			return nil, err
		}
		return &notCmd{cmd: inner}, nil
	case t.text == "if":
		return p.parseIf()
	case t.text == "for":
		return p.parseFor()
	case t.text == "while" || t.text == "until":
		return p.parseWhile(t.text == "until")
	case t.text == "[[":
		return p.parseCond()
	case strings.HasPrefix(t.text, "((") && strings.HasSuffix(t.text, "))"):
		p.next()
		return &arithCmd{expr: t.text[2 : len(t.text)-2], line: t.line}, nil
	}
	return p.parseSimple()
}

func (p *parser) parseIf() (node, error) {
	p.next() // "if"
	cond, err := p.parseList([]string{"then"})
	if err != nil {
		return nil, err
	}
	if err := p.expectWord("then"); err != nil {
		return nil, err
	}
	then, err := p.parseList([]string{"fi", "else", "elif"})
	if err != nil {
		return nil, err
	}
	cmd := &ifCmd{cond: cond, then: then}
	for p.peek().kind == tokWord && p.peek().text == "elif" {
		p.next()
		econd, err := p.parseList([]string{"then"})
		if err != nil {
			return nil, err
		}
		if err := p.expectWord("then"); err != nil {
			return nil, err
		}
		ethen, err := p.parseList([]string{"fi", "else", "elif"})
		if err != nil {
			return nil, err
		}
		cmd.elifs = append(cmd.elifs, elifClause{cond: econd, then: ethen})
	}
	if p.peek().kind == tokWord && p.peek().text == "else" {
		p.next()
		elseBody, err := p.parseList([]string{"fi"})
		if err != nil {
			return nil, err
		}
		cmd.elseBody = elseBody
	}
	if err := p.expectWord("fi"); err != nil {
		return nil, err
	}
	return cmd, nil
}

func (p *parser) parseFor() (node, error) {
	p.next() // "for"
	nameTok := p.next()
	if nameTok.kind != tokWord {
		return nil, p.errf("for: expected variable name")
	}
	cmd := &forCmd{varName: nameTok.text}
	p.skipSeparators()
	if p.peek().kind == tokWord && p.peek().text == "in" {
		p.next()
		for p.peek().kind == tokWord && p.peek().text != "do" {
			cmd.items = append(cmd.items, argWord(p.next().text, p.depth))
		}
	}
	p.skipSeparators()
	if err := p.expectWord("do"); err != nil {
		return nil, err
	}
	body, err := p.parseList([]string{"done"})
	if err != nil {
		return nil, err
	}
	cmd.body = body
	if err := p.expectWord("done"); err != nil {
		return nil, err
	}
	return cmd, nil
}

func (p *parser) parseWhile(until bool) (node, error) {
	p.next() // "while"/"until"
	cond, err := p.parseList([]string{"do"})
	if err != nil {
		return nil, err
	}
	if err := p.expectWord("do"); err != nil {
		return nil, err
	}
	body, err := p.parseList([]string{"done"})
	if err != nil {
		return nil, err
	}
	if err := p.expectWord("done"); err != nil {
		return nil, err
	}
	if until {
		// until COND == while ! COND: wrap the condition.
		cond = []node{&ifCmd{cond: cond, then: []node{&simpleCmd{argv: []string{"false"}}}, elseBody: []node{&simpleCmd{argv: []string{"true"}}}}}
	}
	return &whileCmd{cond: cond, body: body}, nil
}

func (p *parser) parseCond() (node, error) {
	start := p.next() // "[["
	var words []word
	for {
		t := p.peek()
		if t.kind == tokEOF || t.kind == tokNewline {
			return nil, p.errf("unterminated [[ ]]")
		}
		// Inside [[ ]], && and || are condition operators.
		if t.kind == tokOp && (t.text == "&&" || t.text == "||") {
			words = append(words, word{raw: t.text, lit: true, text: t.text})
			p.next()
			continue
		}
		if t.kind != tokWord {
			return nil, p.errf("unexpected %q inside [[ ]]", t)
		}
		p.next()
		if t.text == "]]" {
			return &condCmd{words: words, line: start.line}, nil
		}
		// Only the word after == or != is ever read as a pattern.
		pattern := len(words) > 0 && patternOps[words[len(words)-1].raw]
		w := textWord(t.text, p.depth, pattern)
		w.raw = t.text
		words = append(words, w)
	}
}

func (p *parser) parseSimple() (node, error) {
	cmd := &simpleCmd{line: p.peek().line}
	// Leading assignments: NAME=value words before the command name.
	for p.peek().kind == tokWord && len(cmd.words) == 0 {
		if name, raw, ok := splitAssign(p.peek().text); ok {
			cmd.assigns = append(cmd.assigns, assign{name: name, val: textWord(raw, p.depth, false)})
			p.next()
			continue
		}
		break
	}
	for {
		t := p.peek()
		switch t.kind {
		case tokWord:
			cmd.words = append(cmd.words, argWord(t.text, p.depth))
			p.next()
		case tokRedir:
			r := redir{fd: t.fd, op: t.text}
			p.next()
			target := p.peek()
			if target.kind != tokWord {
				return nil, p.errf("redirect needs a target")
			}
			r.target = textWord(target.text, p.depth, false)
			p.next()
			cmd.redirs = append(cmd.redirs, r)
		default:
			if len(cmd.words) == 0 && len(cmd.assigns) == 0 {
				return nil, p.errf("expected command")
			}
			cmd.bakeArgv()
			return cmd, nil
		}
	}
}

// bakeArgv replaces the words of an all-literal command by the argv
// they always expand to.
func (c *simpleCmd) bakeArgv() {
	if len(c.words) == 0 {
		return
	}
	n := 0
	for i := range c.words {
		if !c.words[i].lit {
			return
		}
		n += len(c.words[i].fields)
	}
	c.argv = make([]string, 0, n)
	for i := range c.words {
		c.argv = append(c.argv, c.words[i].fields...)
	}
	c.words = nil
}

func (p *parser) expectWord(w string) error {
	p.skipSeparators()
	t := p.peek()
	if t.kind != tokWord || t.text != w {
		return p.errf("expected %q, got %q", w, t)
	}
	p.next()
	return nil
}

// splitAssign recognizes NAME=value words (unquoted NAME, first '=').
func splitAssign(word string) (name, raw string, ok bool) {
	for i := 0; i < len(word); i++ {
		c := word[i]
		if c == '=' {
			if i == 0 {
				return "", "", false
			}
			return word[:i], word[i+1:], true
		}
		if !(c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || i > 0 && c >= '0' && c <= '9') {
			return "", "", false
		}
	}
	return "", "", false
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}
