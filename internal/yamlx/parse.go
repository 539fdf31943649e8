package yamlx

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseError describes a parse failure with its source line. Every
// error the parser returns is one, and only the parser makes them. Its
// text is formatted once, when the parser makes it: the document cache
// keeps the error with the text that failed, and printing it again
// allocates nothing.
type ParseError struct {
	Line int
	Msg  string
	text string // applyPrefix + "yaml: line N: " + Msg
}

// applyPrefix is what "kubectl apply -f" puts before a parse error.
const applyPrefix = "error parsing YAML: "

func (e *ParseError) Error() string { return e.text[len(applyPrefix):] }

// ApplyText is the error as "kubectl apply -f" and "kubectl delete -f"
// report it: "error parsing YAML: " followed by Error.
func (e *ParseError) ApplyText() string { return e.text }

func errAt(line int, format string, args ...any) error {
	msg := fmt.Sprintf(format, args...)
	return &ParseError{Line: line, Msg: msg, text: applyPrefix + "yaml: line " + strconv.Itoa(line) + ": " + msg}
}

// Parse parses a single YAML document. If the input contains multiple
// documents, the first non-empty one is returned.
func Parse(data []byte) (*Node, error) {
	docs, err := ParseAll(data)
	if err != nil {
		return nil, err
	}
	for _, d := range docs {
		if d != nil && d.Kind != NullKind {
			return d, nil
		}
	}
	if len(docs) > 0 {
		return docs[0], nil
	}
	return Null(), nil
}

// ParseString is Parse on a string.
func ParseString(s string) (*Node, error) { return Parse([]byte(s)) }

// ParseAll parses a multi-document YAML stream separated by "---" lines.
func ParseAll(data []byte) ([]*Node, error) {
	lines := splitLines(string(data))
	var docs []*Node
	start := 0
	flush := func(end int) error {
		chunk := lines[start:end]
		if !allBlank(chunk) {
			p := &parser{lines: chunk}
			n, err := p.parseDocument()
			if err != nil {
				return err
			}
			docs = append(docs, n)
		}
		return nil
	}
	for i, ln := range lines {
		t := ln.content
		if t == "---" || strings.HasPrefix(t, "--- ") {
			if err := flush(i); err != nil {
				return nil, err
			}
			// "--- inline content" puts content back on the same line.
			rest := strings.TrimSpace(strings.TrimPrefix(t, "---"))
			lines[i].text = strings.Repeat(" ", ln.indent) + rest
			lines[i].content = rest
			if rest == "" {
				start = i + 1
			} else {
				start = i
			}
			continue
		}
		if t == "..." {
			if err := flush(i); err != nil {
				return nil, err
			}
			start = i + 1
		}
	}
	if err := flush(len(lines)); err != nil {
		return nil, err
	}
	if len(docs) == 0 {
		docs = append(docs, Null())
	}
	return docs, nil
}

type srcLine struct {
	num     int    // 1-based
	indent  int    // count of leading spaces
	text    string // raw line (tabs expanded)
	content string // text with surrounding whitespace trimmed
}

func splitLines(s string) []srcLine {
	if strings.Contains(s, "\r\n") {
		s = strings.ReplaceAll(s, "\r\n", "\n")
	}
	raw := strings.Split(s, "\n")
	out := make([]srcLine, 0, len(raw))
	for i, ln := range raw {
		if strings.IndexByte(ln, '\t') >= 0 {
			ln = strings.ReplaceAll(ln, "\t", "  ")
		}
		ind := 0
		for ind < len(ln) && ln[ind] == ' ' {
			ind++
		}
		out = append(out, srcLine{num: i + 1, indent: ind, text: ln, content: strings.TrimSpace(ln)})
	}
	return out
}

func allBlank(lines []srcLine) bool {
	for _, ln := range lines {
		t := ln.content
		if t != "" && !strings.HasPrefix(t, "#") {
			return false
		}
	}
	return true
}

type parser struct {
	lines []srcLine
	pos   int
}

func (p *parser) peek() (srcLine, bool) {
	for i := p.pos; i < len(p.lines); i++ {
		t := p.lines[i].content
		if t == "" || t[0] == '#' {
			continue
		}
		return p.lines[i], true
	}
	return srcLine{}, false
}

func (p *parser) advanceTo(ln srcLine) {
	for p.pos < len(p.lines) {
		if p.lines[p.pos].num == ln.num {
			p.pos++
			return
		}
		p.pos++
	}
}

func (p *parser) parseDocument() (*Node, error) {
	ln, ok := p.peek()
	if !ok {
		return Null(), nil
	}
	n, err := p.parseBlock(ln.indent)
	if err != nil {
		return nil, err
	}
	if extra, ok := p.peek(); ok {
		return nil, errAt(extra.num, "unexpected content %q after document", strings.TrimSpace(extra.text))
	}
	return n, nil
}

// parseBlock parses a block node whose first line is indented exactly at
// or beyond min indent. The node ends at the first line with indent
// below the block's own indent.
func (p *parser) parseBlock(minIndent int) (*Node, error) {
	ln, ok := p.peek()
	if !ok || ln.indent < minIndent {
		return Null(), nil
	}
	content := ln.content
	if strings.HasPrefix(content, "- ") || content == "-" {
		return p.parseSequence(ln.indent)
	}
	if k, _, isMap := splitKey(stripComment(content)); isMap && k != "" {
		return p.parseMapping(ln.indent)
	}
	// Bare scalar document (possibly multi-line flow).
	p.advanceTo(ln)
	val, comment := splitValueComment(content)
	node, err := parseFlowOrScalar(val, ln.num, p)
	if err != nil {
		return nil, err
	}
	node.Comment = comment
	node.Line = ln.num
	return node, nil
}

func (p *parser) parseMapping(indent int) (*Node, error) {
	m := Map()
	first := true
	for {
		ln, ok := p.peek()
		if !ok || ln.indent < indent {
			return m, nil
		}
		if ln.indent > indent {
			return nil, errAt(ln.num, "bad indentation in mapping (got %d, want %d)", ln.indent, indent)
		}
		content := ln.content
		if strings.HasPrefix(content, "- ") || content == "-" {
			if first {
				return nil, errAt(ln.num, "sequence item where mapping expected")
			}
			return m, nil
		}
		key, rest, isMap := splitKey(stripComment(content))
		if !isMap {
			return nil, errAt(ln.num, "expected key: value, got %q", content)
		}
		first = false
		p.advanceTo(ln)
		_, comment := splitValueComment(content)
		var val *Node
		var err error
		switch {
		case rest == "":
			val, err = p.parseNested(ln, indent)
		case rest == "|" || rest == "|-" || rest == "|+" || rest == ">" || rest == ">-" || rest == ">+":
			val, err = p.parseBlockScalar(rest, indent, ln.num)
		default:
			val, err = parseFlowOrScalar(rest, ln.num, p)
		}
		if err != nil {
			return nil, err
		}
		val.Comment = comment
		if val.Line == 0 {
			val.Line = ln.num
		}
		if m.Has(key) {
			return nil, errAt(ln.num, "duplicate mapping key %q", key)
		}
		m.Set(key, val)
		m.Line = firstNonZero(m.Line, ln.num)
	}
}

// parseNested parses the value of "key:" with nothing after the colon:
// either a more-indented block, a sequence at the same indent, or null.
func (p *parser) parseNested(keyLine srcLine, keyIndent int) (*Node, error) {
	next, ok := p.peek()
	if !ok {
		return Null(), nil
	}
	nc := next.content
	isSeq := strings.HasPrefix(nc, "- ") || nc == "-"
	switch {
	case next.indent > keyIndent:
		return p.parseBlock(next.indent)
	case next.indent == keyIndent && isSeq:
		// YAML permits sequences under a key at the key's own indent.
		return p.parseSequence(next.indent)
	default:
		return Null(), nil
	}
}

func (p *parser) parseSequence(indent int) (*Node, error) {
	s := Seq()
	for {
		ln, ok := p.peek()
		if !ok || ln.indent != indent {
			if ok && ln.indent > indent {
				return nil, errAt(ln.num, "bad indentation in sequence")
			}
			return s, nil
		}
		content := ln.content
		if !strings.HasPrefix(content, "-") || (len(content) > 1 && content[1] != ' ') {
			return s, nil
		}
		p.advanceTo(ln)
		rest := strings.TrimSpace(content[1:])
		itemIndent := ln.indent + 2 // "- " consumes two columns
		if rest == "" {
			// Item entirely on following more-indented lines.
			next, ok := p.peek()
			if !ok || next.indent <= ln.indent {
				s.Append(Null())
				continue
			}
			item, err := p.parseBlock(next.indent)
			if err != nil {
				return nil, err
			}
			s.Append(item)
			continue
		}
		restNoComment := stripComment(rest)
		_, comment := splitValueComment(rest)
		if strings.HasPrefix(restNoComment, "- ") || restNoComment == "-" {
			// Nested sequence starting on the dash line: re-enter with a
			// synthetic line. Simplest correct handling: treat the text
			// after "- " as the first item of a nested sequence indented
			// at itemIndent.
			sub, err := p.parseInlineSeqItem(rest, ln, itemIndent)
			if err != nil {
				return nil, err
			}
			s.Append(sub)
			continue
		}
		if key, krest, isMap := splitKey(restNoComment); isMap && key != "" {
			item, err := p.parseInlineMapItem(key, krest, comment, ln, itemIndent)
			if err != nil {
				return nil, err
			}
			s.Append(item)
			continue
		}
		val, err := parseFlowOrScalar(restNoComment, ln.num, p)
		if err != nil {
			return nil, err
		}
		val.Comment = comment
		val.Line = ln.num
		s.Append(val)
	}
}

// parseInlineMapItem parses a sequence item whose first mapping entry sits
// on the dash line: "- key: value" followed by further entries indented
// at itemIndent.
func (p *parser) parseInlineMapItem(key, rest, comment string, ln srcLine, itemIndent int) (*Node, error) {
	m := Map()
	m.Line = ln.num
	var val *Node
	var err error
	switch {
	case rest == "":
		val, err = p.parseNestedAfterDash(itemIndent)
	case rest == "|" || rest == "|-" || rest == "|+" || rest == ">" || rest == ">-" || rest == ">+":
		val, err = p.parseBlockScalar(rest, itemIndent-2, ln.num)
	default:
		val, err = parseFlowOrScalar(rest, ln.num, p)
	}
	if err != nil {
		return nil, err
	}
	val.Comment = comment
	if val.Line == 0 {
		val.Line = ln.num
	}
	m.Set(key, val)
	// Continue with additional entries indented at itemIndent.
	for {
		next, ok := p.peek()
		if !ok || next.indent < itemIndent {
			return m, nil
		}
		nc := next.content
		if next.indent == itemIndent && (strings.HasPrefix(nc, "- ") || nc == "-") {
			return m, nil
		}
		if next.indent > itemIndent {
			return nil, errAt(next.num, "bad indentation in sequence item mapping")
		}
		sub, err := p.parseMapping(itemIndent)
		if err != nil {
			return nil, err
		}
		for _, e := range sub.Entries {
			if m.Has(e.Key) {
				return nil, errAt(next.num, "duplicate mapping key %q", e.Key)
			}
			m.Set(e.Key, e.Value)
		}
		return m, nil
	}
}

func (p *parser) parseInlineSeqItem(rest string, ln srcLine, itemIndent int) (*Node, error) {
	// Build a synthetic sub-parser for "- a" nested on a dash line plus
	// any following lines at >= itemIndent.
	sub := &parser{}
	sub.lines = append(sub.lines, srcLine{num: ln.num, indent: itemIndent, text: strings.Repeat(" ", itemIndent) + rest, content: strings.TrimSpace(rest)})
	for {
		next, ok := p.peek()
		if !ok || next.indent < itemIndent {
			break
		}
		sub.lines = append(sub.lines, next)
		p.advanceTo(next)
	}
	return sub.parseSequence(itemIndent)
}

func (p *parser) parseNestedAfterDash(itemIndent int) (*Node, error) {
	next, ok := p.peek()
	if !ok || next.indent < itemIndent {
		return Null(), nil
	}
	nc := next.content
	isSeq := strings.HasPrefix(nc, "- ") || nc == "-"
	switch {
	case next.indent > itemIndent:
		return p.parseBlock(next.indent)
	case next.indent == itemIndent && isSeq:
		// A sequence at the key's own indent is that key's value.
		return p.parseSequence(next.indent)
	default:
		return Null(), nil
	}
}

// parseBlockScalar handles "|" literal and ">" folded block scalars.
func (p *parser) parseBlockScalar(marker string, parentIndent, lineNum int) (*Node, error) {
	var body []string
	blockIndent := -1
	for p.pos < len(p.lines) {
		ln := p.lines[p.pos]
		t := strings.TrimRight(ln.text, " ")
		if strings.TrimSpace(t) == "" {
			body = append(body, "")
			p.pos++
			continue
		}
		if ln.indent <= parentIndent {
			break
		}
		if blockIndent < 0 {
			blockIndent = ln.indent
		}
		if ln.indent < blockIndent {
			break
		}
		body = append(body, t[blockIndent:])
		p.pos++
	}
	// Trim trailing blank lines (clip chomping, the default).
	for len(body) > 0 && body[len(body)-1] == "" {
		body = body[:len(body)-1]
	}
	var text string
	if strings.HasPrefix(marker, ">") {
		text = strings.Join(body, " ")
	} else {
		text = strings.Join(body, "\n")
	}
	if !strings.HasSuffix(marker, "-") {
		text += "\n"
	}
	n := String(text)
	n.Quoted = true
	n.Line = lineNum
	return n, nil
}

// splitKey splits "key: rest" at the first unquoted, un-bracketed colon
// that is followed by a space or ends the string. isMap is false when no
// such colon exists (the content is a plain scalar like "nginx:latest"
// only when the colon is not followed by space — per YAML, "a:b" is a
// scalar but "a: b" is a mapping).
func splitKey(content string) (key, rest string, isMap bool) {
	depth := 0
	for i := 0; i < len(content); i++ {
		switch content[i] {
		case '\'', '"':
			i = quoteEnd(content, i)
		case '[', '{':
			depth++
		case ']', '}':
			depth--
		case ':':
			if depth == 0 && (i+1 == len(content) || content[i+1] == ' ') {
				key = strings.TrimSpace(content[:i])
				rest = strings.TrimSpace(content[i+1:])
				key = unquoteKey(key)
				return key, rest, true
			}
		}
	}
	return "", "", false
}

// quoteEnd returns the index of the quote that closes the one opened at
// s[i], or len(s) when nothing does. Inside double quotes a backslash
// escapes the byte after it, so `\"` does not close; single quotes have
// no escapes (a doubled quote closes and reopens, which scans the same).
func quoteEnd(s string, i int) int {
	q := s[i]
	for i++; i < len(s); i++ {
		if s[i] == '\\' && q == '"' {
			i++
		} else if s[i] == q {
			return i
		}
	}
	return len(s)
}

func unquoteKey(k string) string {
	if len(k) >= 2 && (k[0] == '"' && k[len(k)-1] == '"' || k[0] == '\'' && k[len(k)-1] == '\'') {
		return k[1 : len(k)-1]
	}
	return k
}

// stripComment removes an unquoted trailing "# ..." comment.
func stripComment(s string) string {
	v, _ := splitValueComment(s)
	return v
}

// SplitTrailingComment splits a single line into its content and any
// unquoted trailing "#" comment (without the "#"). Exported for callers
// that post-process raw YAML text, such as label stripping.
func SplitTrailingComment(line string) (value, comment string) {
	return splitValueComment(line)
}

// splitValueComment splits content into the value part and the trailing
// comment text (without "#"). A "#" only starts a comment at the start
// of the content or when preceded by whitespace, outside quotes.
func splitValueComment(s string) (value, comment string) {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\'', '"':
			i = quoteEnd(s, i)
		case '#':
			if i == 0 || s[i-1] == ' ' {
				return strings.TrimSpace(s[:i]), strings.TrimSpace(s[i+1:])
			}
		}
	}
	return strings.TrimSpace(s), ""
}

// parseFlowOrScalar parses an inline value: flow sequence, flow mapping,
// quoted string or plain scalar with type inference.
func parseFlowOrScalar(s string, line int, p *parser) (*Node, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Null(), nil
	}
	if s[0] == '[' || s[0] == '{' {
		fp := &flowParser{src: s, line: line}
		n, err := fp.parseValue()
		if err != nil {
			return nil, err
		}
		fp.skipSpace()
		if fp.pos != len(fp.src) {
			return nil, errAt(line, "trailing characters after flow value: %q", fp.src[fp.pos:])
		}
		n.Line = line
		return n, nil
	}
	return scalarFromString(s, line)
}

func scalarFromString(s string, line int) (*Node, error) {
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		unq, err := strconv.Unquote(s)
		if err != nil {
			// Permit simple double-quoted strings Go's Unquote rejects.
			unq = s[1 : len(s)-1]
		}
		n := String(unq)
		n.Quoted = true
		n.Line = line
		return n, nil
	}
	if len(s) >= 2 && s[0] == '\'' && s[len(s)-1] == '\'' {
		n := String(strings.ReplaceAll(s[1:len(s)-1], "''", "'"))
		n.Quoted = true
		n.Line = line
		return n, nil
	}
	n := inferScalar(s)
	n.Line = line
	return n, nil
}

// inferKind applies YAML 1.2 core-schema-ish type inference: the kind a
// plain scalar's text reads as.
func inferKind(s string) Kind {
	switch s {
	case "null", "Null", "NULL", "~":
		return NullKind
	case "true", "True", "TRUE", "false", "False", "FALSE":
		return BoolKind
	}
	return numericKind(s)
}

// numericKind is IntKind for text strconv.ParseInt reads in base 10, or
// in base 16 after a "0x" or "0X", FloatKind for other text
// strconv.ParseFloat reads, and StringKind for the rest, except that
// text not starting with a sign, a dot or a digit is always a string
// (looksNumeric). strconv's Parse functions build an error for every
// input they refuse, and most scalars are strings, so a byte scan
// decides: strconv runs only on decimal text the scan found well formed,
// where it can fail only by overflow, and on the rare forms the scan
// leaves to it (underscores, hexadecimal).
func numericKind(s string) Kind {
	if !looksNumeric(s) {
		return StringKind
	}
	i := 0
	if s[0] == '+' || s[0] == '-' {
		i = 1
	}
	if rest := s[i:]; i == 1 && (strings.EqualFold(rest, "inf") || strings.EqualFold(rest, "infinity")) {
		return FloatKind
	} else if len(rest) > 1 && rest[0] == '0' && (rest[1] == 'x' || rest[1] == 'X') || strings.IndexByte(s, '_') >= 0 {
		return strconvKind(s)
	}
	// [sign] digits [. digits] [(e|E) [sign] digits], with a digit on at
	// least one side of the dot.
	start := i
	for i < len(s) && isDigit(s[i]) {
		i++
	}
	intDigits := i - start
	mantissa := intDigits
	isFloat := false
	if i < len(s) && s[i] == '.' {
		isFloat = true
		i++
		frac := i
		for i < len(s) && isDigit(s[i]) {
			i++
		}
		mantissa += i - frac
	}
	if mantissa == 0 {
		return StringKind
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		isFloat = true
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		exp := i
		for i < len(s) && isDigit(s[i]) {
			i++
		}
		if i == exp {
			return StringKind
		}
	}
	if i < len(s) {
		return StringKind
	}
	if !isFloat && fitsInt64(s[start:], s[0] == '-') {
		return IntKind
	}
	// Well formed: ParseFloat fails only if the value overflows.
	if _, err := strconv.ParseFloat(s, 64); err == nil {
		return FloatKind
	}
	return StringKind
}

// strconvKind is what numericKind decides, decided by strconv itself.
func strconvKind(s string) Kind {
	if _, err := strconv.ParseInt(s, 10, 64); err == nil {
		return IntKind
	}
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		if _, err := strconv.ParseInt(s[2:], 16, 64); err == nil {
			return IntKind
		}
	}
	if _, err := strconv.ParseFloat(s, 64); err == nil {
		return FloatKind
	}
	return StringKind
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// fitsInt64 reports whether a run of decimal digits, negated when neg,
// is within int64's range.
func fitsInt64(digits string, neg bool) bool {
	for len(digits) > 1 && digits[0] == '0' {
		digits = digits[1:]
	}
	const maxInt64 = "9223372036854775807"
	switch {
	case len(digits) < len(maxInt64):
		return true
	case len(digits) > len(maxInt64):
		return false
	case neg:
		return digits <= "9223372036854775808"
	}
	return digits <= maxInt64
}

// inferScalar is the node a plain scalar's text reads as.
func inferScalar(s string) *Node {
	switch inferKind(s) {
	case NullKind:
		return Null()
	case BoolKind:
		return Boolean(s[0] == 't' || s[0] == 'T')
	case IntKind:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			i, _ = strconv.ParseInt(s[2:], 16, 64) // inferKind saw the 0x form parse
		}
		return Integer(i)
	case FloatKind:
		f, _ := strconv.ParseFloat(s, 64) // inferKind saw it parse
		return Number(f)
	}
	return String(s)
}

// looksNumeric guards against ParseFloat accepting "Inf"-like strings we
// prefer to keep as text, and version-ish strings.
func looksNumeric(s string) bool {
	if s == "" {
		return false
	}
	c := s[0]
	if c != '+' && c != '-' && c != '.' && (c < '0' || c > '9') {
		return false
	}
	return true
}

type flowParser struct {
	src  string
	pos  int
	line int
}

func (f *flowParser) skipSpace() {
	for f.pos < len(f.src) && (f.src[f.pos] == ' ' || f.src[f.pos] == '\n') {
		f.pos++
	}
}

func (f *flowParser) parseValue() (*Node, error) {
	f.skipSpace()
	if f.pos >= len(f.src) {
		return nil, errAt(f.line, "unexpected end of flow value")
	}
	switch f.src[f.pos] {
	case '[':
		return f.parseSeq()
	case '{':
		return f.parseMap()
	case '"', '\'':
		return f.parseQuoted()
	default:
		return f.parsePlain()
	}
}

func (f *flowParser) parseSeq() (*Node, error) {
	f.pos++ // consume '['
	s := Seq()
	f.skipSpace()
	if f.pos < len(f.src) && f.src[f.pos] == ']' {
		f.pos++
		return s, nil
	}
	for {
		item, err := f.parseValue()
		if err != nil {
			return nil, err
		}
		s.Append(item)
		f.skipSpace()
		if f.pos >= len(f.src) {
			return nil, errAt(f.line, "unterminated flow sequence")
		}
		switch f.src[f.pos] {
		case ',':
			f.pos++
		case ']':
			f.pos++
			return s, nil
		default:
			return nil, errAt(f.line, "unexpected %q in flow sequence", f.src[f.pos])
		}
	}
}

func (f *flowParser) parseMap() (*Node, error) {
	f.pos++ // consume '{'
	m := Map()
	f.skipSpace()
	if f.pos < len(f.src) && f.src[f.pos] == '}' {
		f.pos++
		return m, nil
	}
	for {
		keyNode, err := f.parseValue()
		if err != nil {
			return nil, err
		}
		f.skipSpace()
		if f.pos >= len(f.src) || f.src[f.pos] != ':' {
			return nil, errAt(f.line, "expected ':' in flow mapping")
		}
		f.pos++
		val, err := f.parseValue()
		if err != nil {
			return nil, err
		}
		m.Set(keyNode.ScalarString(), val)
		f.skipSpace()
		if f.pos >= len(f.src) {
			return nil, errAt(f.line, "unterminated flow mapping")
		}
		switch f.src[f.pos] {
		case ',':
			f.pos++
			f.skipSpace()
		case '}':
			f.pos++
			return m, nil
		default:
			return nil, errAt(f.line, "unexpected %q in flow mapping", f.src[f.pos])
		}
	}
}

func (f *flowParser) parseQuoted() (*Node, error) {
	q := f.src[f.pos]
	start := f.pos
	f.pos++
	for f.pos < len(f.src) {
		if f.src[f.pos] == '\\' && q == '"' {
			f.pos += 2
			continue
		}
		if f.src[f.pos] == q {
			f.pos++
			return scalarFromString(f.src[start:f.pos], f.line)
		}
		f.pos++
	}
	return nil, errAt(f.line, "unterminated quoted string")
}

func (f *flowParser) parsePlain() (*Node, error) {
	start := f.pos
	for f.pos < len(f.src) {
		c := f.src[f.pos]
		if c == ',' || c == ']' || c == '}' || c == ':' {
			break
		}
		f.pos++
	}
	// Allow ':' inside plain scalars when not followed by space (URLs,
	// image tags).
	for f.pos < len(f.src) && f.src[f.pos] == ':' &&
		f.pos+1 < len(f.src) && f.src[f.pos+1] != ' ' && f.src[f.pos+1] != ',' && f.src[f.pos+1] != ']' && f.src[f.pos+1] != '}' {
		f.pos++
		for f.pos < len(f.src) {
			c := f.src[f.pos]
			if c == ',' || c == ']' || c == '}' || c == ':' {
				break
			}
			f.pos++
		}
	}
	txt := strings.TrimSpace(f.src[start:f.pos])
	if txt == "" {
		return Null(), nil
	}
	n := inferScalar(txt)
	n.Line = f.line
	return n, nil
}

func firstNonZero(a, b int) int {
	if a != 0 {
		return a
	}
	return b
}
