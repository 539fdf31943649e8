package yamlx

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
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
func Parse(data []byte) (*Node, error) { return firstDocument(ParseAll(data)) }

// ParseString is Parse on a string.
func ParseString(s string) (*Node, error) { return firstDocument(parseAll(s)) }

// firstDocument is the document Parse picks from a stream.
func firstDocument(docs []*Node, err error) (*Node, error) {
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

// ParseAll parses a multi-document YAML stream separated by "---" lines.
// The documents are built in three slabs, their text aside (see the
// package comment).
func ParseAll(data []byte) ([]*Node, error) { return parseAll(string(data)) }

// parseAll parses src in place: the nodes' strings are slices of it.
func parseAll(src string) ([]*Node, error) {
	b := builders.Get().(*builder)
	docs, err := b.parse(src)
	b.release()
	builders.Put(b)
	return docs, err
}

var builders = sync.Pool{New: func() any { return new(builder) }}

// builder is the scratch a parse builds a stream in: nodes, entries and
// items in an Arena; the entries of the mappings still open, the items
// of the sequences still open and the finished documents on stacks,
// innermost last; and the text's lines. finish copies the stream out
// into three slabs of exactly its size, so the scratch is reused by the
// next parse and a stream costs three allocations whatever its shape.
type builder struct {
	a     Arena
	lines []srcLine
	ents  []Entry  // the open mappings' entries
	items []*Node  // the documents, then the open sequences' items
	body  []string // a block scalar's lines
	// keys indexes the entries of each open mapping that has grown past
	// indexAt, by its id and key, so that a duplicate key is found in
	// constant time however many keys a mapping has.
	keys   map[mappingKey]int
	lastID int32
	// n counts the entries and items of the stream as it will be
	// copied out: those of every closed mapping and sequence that no
	// other value replaced.
	n counts
}

type counts struct{ entries, items int }

type mappingKey struct {
	id  int32
	key string
}

// indexAt is how many entries a mapping holds before its keys are
// indexed; below it, a scan of the entries is cheaper than the map.
const indexAt = 16

// openMapping is a mapping being built: its entries are the builder's
// from base on, and id is its key index's, 0 until it has one.
type openMapping struct {
	base int
	id   int32
}

func (b *builder) parse(src string) ([]*Node, error) {
	lines := b.splitLines(src)
	start := 0
	for i := range lines {
		ln := &lines[i]
		t := ln.content
		if t == "---" || strings.HasPrefix(t, "--- ") {
			if err := b.document(lines[start:i]); err != nil {
				return nil, err
			}
			// "--- inline content" puts content back on the same line.
			if rest := strings.TrimSpace(t[3:]); rest == "" {
				start = i + 1
			} else {
				ln.text = strings.Repeat(" ", ln.indent) + rest
				ln.content = rest
				start = i
			}
			continue
		}
		if t == "..." {
			if err := b.document(lines[start:i]); err != nil {
				return nil, err
			}
			start = i + 1
		}
	}
	if err := b.document(lines[start:]); err != nil {
		return nil, err
	}
	if len(b.items) == 0 {
		b.items = append(b.items, b.a.Node())
	}
	return b.finish(), nil
}

// document parses one document's lines, if they hold one, onto the
// documents.
func (b *builder) document(lines []srcLine) error {
	if allBlank(lines) {
		return nil
	}
	p := parser{b: b, lines: lines}
	n, err := p.parseDocument()
	if err != nil {
		return err
	}
	b.items = append(b.items, n)
	return nil
}

// finish copies the documents into slabs of nodes, entries and items.
// The documents' list is the first items.
func (b *builder) finish() []*Node {
	docs := b.items
	s := slabs{
		nodes: make([]Node, len(docs)+b.n.entries+b.n.items),
		items: make([]*Node, len(docs)+b.n.items),
	}
	if b.n.entries > 0 {
		s.entries = make([]Entry, b.n.entries)
	}
	out, roots := s.takeItems(len(docs)), s.takeNodes(len(docs))
	for i, d := range docs {
		out[i] = &roots[i]
		s.copy(&roots[i], d)
	}
	return out
}

// release readies the builder for the next parse: it holds nothing of
// this one's, and no stack or index past ChunkCap.
func (b *builder) release() {
	b.a.Rewind()
	b.lines = reuse(b.lines)
	b.ents = reuse(b.ents)
	b.items = reuse(b.items)
	b.body = reuse(b.body)
	if len(b.keys) > ChunkCap {
		b.keys = nil
	}
	clear(b.keys)
	b.lastID, b.n = 0, counts{}
}

// reuse is s emptied for the next parse, or nil when it grew past
// ChunkCap.
func reuse[T any](s []T) []T {
	if cap(s) > ChunkCap {
		return nil
	}
	clear(s)
	return s[:0]
}

// slabs hands out a stream's nodes, entries and items. Every Entries and
// Items it hands out is capped, so that an append copies it instead of
// writing over its neighbour's.
type slabs struct {
	nodes   []Node
	entries []Entry
	items   []*Node
}

func (s *slabs) takeNodes(n int) []Node {
	t := s.nodes[:n:n]
	s.nodes = s.nodes[n:]
	return t
}

func (s *slabs) takeItems(n int) []*Node {
	t := s.items[:n:n]
	s.items = s.items[n:]
	return t
}

// copy writes src into dst, its children into nodes next to each other.
func (s *slabs) copy(dst, src *Node) {
	*dst = *src
	dst.Entries, dst.Items = nil, nil
	if k := len(src.Entries); k > 0 {
		es, kids := s.entries[:k:k], s.takeNodes(k)
		s.entries = s.entries[k:]
		for i, e := range src.Entries {
			es[i] = Entry{Key: e.Key, Value: &kids[i]}
			s.copy(&kids[i], e.Value)
		}
		dst.Entries = es
	}
	if k := len(src.Items); k > 0 {
		its, kids := s.takeItems(k), s.takeNodes(k)
		for i, it := range src.Items {
			its[i] = &kids[i]
			s.copy(&kids[i], it)
		}
		dst.Items = its
	}
}

func (b *builder) node(k Kind) *Node {
	n := b.a.Node()
	n.Kind = k
	return n
}

func (b *builder) openMapping() openMapping { return openMapping{base: len(b.ents)} }

// find returns the index in m of key's entry, or -1.
func (b *builder) find(m *openMapping, key string) int {
	es := b.ents[m.base:]
	if m.id == 0 {
		if len(es) < indexAt {
			for i := range es {
				if es[i].Key == key {
					return i
				}
			}
			return -1
		}
		if b.keys == nil {
			b.keys = map[mappingKey]int{}
		}
		b.lastID++
		m.id = b.lastID
		for i := range es {
			b.keys[mappingKey{m.id, es[i].Key}] = i
		}
	}
	if i, ok := b.keys[mappingKey{m.id, key}]; ok {
		return i
	}
	return -1
}

// add appends an entry of a key m does not hold.
func (b *builder) add(m *openMapping, key string, v *Node) {
	if m.id != 0 {
		b.keys[mappingKey{m.id, key}] = len(b.ents) - m.base
	}
	b.ents = append(b.ents, Entry{Key: key, Value: v})
}

// closeMapping gives n the entries of m.
func (b *builder) closeMapping(n *Node, m openMapping) {
	es := b.ents[m.base:]
	if len(es) > 0 {
		n.Entries = b.a.entries.Take(len(es))
		copy(n.Entries, es)
		b.n.entries += len(es)
	}
	clear(es)
	b.ents = b.ents[:m.base]
}

// closeSequence gives n the items pushed since base.
func (b *builder) closeSequence(n *Node, base int) {
	its := b.items[base:]
	if len(its) > 0 {
		n.Items = b.a.CopyItems(its)
		b.n.items += len(its)
	}
	clear(its)
	b.items = b.items[:base]
}

// forget uncounts a value another replaced.
func (b *builder) forget(n *Node) {
	b.n.entries -= len(n.Entries)
	b.n.items -= len(n.Items)
	for _, e := range n.Entries {
		b.forget(e.Value)
	}
	for _, it := range n.Items {
		b.forget(it)
	}
}

type srcLine struct {
	num     int    // 1-based
	indent  int    // count of leading spaces
	text    string // raw line (tabs expanded)
	content string // text with surrounding whitespace trimmed
}

// splitLines splits s into the builder's lines.
func (b *builder) splitLines(s string) []srcLine {
	if strings.Contains(s, "\r\n") {
		s = strings.ReplaceAll(s, "\r\n", "\n")
	}
	lines := b.lines[:0]
	for num := 1; ; num++ {
		ln, next := s, -1
		if i := strings.IndexByte(s, '\n'); i >= 0 {
			ln, next = s[:i], i+1
		}
		if strings.IndexByte(ln, '\t') >= 0 {
			ln = strings.ReplaceAll(ln, "\t", "  ")
		}
		ind := 0
		for ind < len(ln) && ln[ind] == ' ' {
			ind++
		}
		lines = append(lines, srcLine{num: num, indent: ind, text: ln, content: strings.TrimSpace(ln)})
		if next < 0 {
			break
		}
		s = s[next:]
	}
	b.lines = lines
	return lines
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
	b     *builder
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
		return p.b.node(NullKind), nil
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

// isSeqItem reports whether a line's content starts a block sequence
// item.
func isSeqItem(content string) bool { return strings.HasPrefix(content, "- ") || content == "-" }

// isBlockScalar reports whether the text after a key is a block scalar
// header.
func isBlockScalar(rest string) bool {
	switch rest {
	case "|", "|-", "|+", ">", ">-", ">+":
		return true
	}
	return false
}

// parseBlock parses a block node whose first line is indented exactly at
// or beyond min indent. The node ends at the first line with indent
// below the block's own indent.
func (p *parser) parseBlock(minIndent int) (*Node, error) {
	ln, ok := p.peek()
	if !ok || ln.indent < minIndent {
		return p.b.node(NullKind), nil
	}
	content := ln.content
	if isSeqItem(content) {
		return p.parseSequence(ln.indent)
	}
	val, comment := splitValueComment(content)
	if k, _, isMap := splitKey(val); isMap && k != "" {
		return p.parseMapping(ln.indent)
	}
	// Bare scalar document (possibly multi-line flow).
	p.advanceTo(ln)
	node, err := p.b.parseFlowOrScalar(val, ln.num)
	if err != nil {
		return nil, err
	}
	node.Comment = comment
	node.Line = ln.num
	return node, nil
}

func (p *parser) parseMapping(indent int) (*Node, error) {
	n, m := p.b.node(MapKind), p.b.openMapping()
	if err := p.mappingEntries(n, &m, indent); err != nil {
		return nil, err
	}
	p.b.closeMapping(n, m)
	return n, nil
}

// mappingEntries adds to m the entries of a block mapping at indent,
// and sets n's line to the first's.
func (p *parser) mappingEntries(n *Node, m *openMapping, indent int) error {
	first := true
	for {
		ln, ok := p.peek()
		if !ok || ln.indent < indent {
			return nil
		}
		if ln.indent > indent {
			return errAt(ln.num, "bad indentation in mapping (got %d, want %d)", ln.indent, indent)
		}
		content := ln.content
		if isSeqItem(content) {
			if first {
				return errAt(ln.num, "sequence item where mapping expected")
			}
			return nil
		}
		kv, comment := splitValueComment(content)
		key, rest, isMap := splitKey(kv)
		if !isMap {
			return errAt(ln.num, "expected key: value, got %q", content)
		}
		first = false
		p.advanceTo(ln)
		var val *Node
		var err error
		switch {
		case rest == "":
			val, err = p.parseNested(ln, indent)
		case isBlockScalar(rest):
			val, err = p.parseBlockScalar(rest, indent, ln.num)
		default:
			val, err = p.b.parseFlowOrScalar(rest, ln.num)
		}
		if err != nil {
			return err
		}
		val.Comment = comment
		if val.Line == 0 {
			val.Line = ln.num
		}
		if p.b.find(m, key) >= 0 {
			return errAt(ln.num, "duplicate mapping key %q", key)
		}
		p.b.add(m, key, val)
		n.Line = firstNonZero(n.Line, ln.num)
	}
}

// parseNested parses the value of "key:" with nothing after the colon:
// either a more-indented block, a sequence at the same indent, or null.
func (p *parser) parseNested(keyLine srcLine, keyIndent int) (*Node, error) {
	next, ok := p.peek()
	if !ok {
		return p.b.node(NullKind), nil
	}
	switch {
	case next.indent > keyIndent:
		return p.parseBlock(next.indent)
	case next.indent == keyIndent && isSeqItem(next.content):
		// YAML permits sequences under a key at the key's own indent.
		return p.parseSequence(next.indent)
	default:
		return p.b.node(NullKind), nil
	}
}

func (p *parser) parseSequence(indent int) (*Node, error) {
	s, base := p.b.node(SeqKind), len(p.b.items)
	for {
		item, ok, err := p.sequenceItem(indent)
		if err != nil {
			return nil, err
		}
		if !ok {
			p.b.closeSequence(s, base)
			return s, nil
		}
		p.b.items = append(p.b.items, item)
	}
}

// sequenceItem parses the next item of a block sequence at indent, if
// the sequence has one.
func (p *parser) sequenceItem(indent int) (*Node, bool, error) {
	ln, ok := p.peek()
	if !ok || ln.indent != indent {
		if ok && ln.indent > indent {
			return nil, false, errAt(ln.num, "bad indentation in sequence")
		}
		return nil, false, nil
	}
	content := ln.content
	if !strings.HasPrefix(content, "-") || (len(content) > 1 && content[1] != ' ') {
		return nil, false, nil
	}
	p.advanceTo(ln)
	rest := strings.TrimSpace(content[1:])
	itemIndent := ln.indent + 2 // "- " consumes two columns
	if rest == "" {
		// Item entirely on following more-indented lines.
		next, ok := p.peek()
		if !ok || next.indent <= ln.indent {
			return p.b.node(NullKind), true, nil
		}
		item, err := p.parseBlock(next.indent)
		return item, err == nil, err
	}
	restNoComment, comment := splitValueComment(rest)
	if isSeqItem(restNoComment) {
		// Nested sequence starting on the dash line: re-enter with a
		// synthetic line. Simplest correct handling: treat the text
		// after "- " as the first item of a nested sequence indented
		// at itemIndent.
		sub, err := p.parseInlineSeqItem(rest, ln, itemIndent)
		return sub, err == nil, err
	}
	if key, krest, isMap := splitKey(restNoComment); isMap && key != "" {
		item, err := p.parseInlineMapItem(key, krest, comment, ln, itemIndent)
		return item, err == nil, err
	}
	val, err := p.b.parseFlowOrScalar(restNoComment, ln.num)
	if err != nil {
		return nil, false, err
	}
	val.Comment = comment
	val.Line = ln.num
	return val, true, nil
}

// parseInlineMapItem parses a sequence item whose first mapping entry sits
// on the dash line: "- key: value" followed by further entries indented
// at itemIndent.
func (p *parser) parseInlineMapItem(key, rest, comment string, ln srcLine, itemIndent int) (*Node, error) {
	n := p.b.node(MapKind)
	n.Line = ln.num
	var val *Node
	var err error
	switch {
	case rest == "":
		val, err = p.parseNestedAfterDash(itemIndent)
	case isBlockScalar(rest):
		val, err = p.parseBlockScalar(rest, itemIndent-2, ln.num)
	default:
		val, err = p.b.parseFlowOrScalar(rest, ln.num)
	}
	if err != nil {
		return nil, err
	}
	val.Comment = comment
	if val.Line == 0 {
		val.Line = ln.num
	}
	m := p.b.openMapping()
	p.b.add(&m, key, val)
	// Continue with additional entries indented at itemIndent: a
	// mapping of their own, whose keys the dash line's may not repeat.
	if next, ok := p.peek(); ok && next.indent >= itemIndent && !(next.indent == itemIndent && isSeqItem(next.content)) {
		if next.indent > itemIndent {
			return nil, errAt(next.num, "bad indentation in sequence item mapping")
		}
		more := p.b.openMapping()
		if err := p.mappingEntries(n, &more, itemIndent); err != nil {
			return nil, err
		}
		for _, e := range p.b.ents[more.base:] {
			if e.Key == key {
				return nil, errAt(next.num, "duplicate mapping key %q", key)
			}
		}
	}
	p.b.closeMapping(n, m)
	return n, nil
}

func (p *parser) parseInlineSeqItem(rest string, ln srcLine, itemIndent int) (*Node, error) {
	// Build a synthetic sub-parser for "- a" nested on a dash line plus
	// any following lines at >= itemIndent.
	sub := parser{b: p.b}
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
		return p.b.node(NullKind), nil
	}
	switch {
	case next.indent > itemIndent:
		return p.parseBlock(next.indent)
	case next.indent == itemIndent && isSeqItem(next.content):
		// A sequence at the key's own indent is that key's value.
		return p.parseSequence(next.indent)
	default:
		return p.b.node(NullKind), nil
	}
}

// parseBlockScalar handles "|" literal and ">" folded block scalars.
func (p *parser) parseBlockScalar(marker string, parentIndent, lineNum int) (*Node, error) {
	body := p.b.body[:0]
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
	p.b.body = body
	// Trim trailing blank lines (clip chomping, the default).
	for len(body) > 0 && body[len(body)-1] == "" {
		body = body[:len(body)-1]
	}
	sep, end := "\n", "\n"
	if marker[0] == '>' {
		sep = " "
	}
	if strings.HasSuffix(marker, "-") {
		end = ""
	}
	n := p.b.node(StringKind)
	n.Str = joinLines(body, sep, end)
	n.Quoted = true
	n.Line = lineNum
	return n, nil
}

// joinLines is strings.Join(lines, sep) + end, in one allocation, or
// none when that is one line of the text.
func joinLines(lines []string, sep, end string) string {
	if len(lines) == 0 {
		return end
	}
	if len(lines) == 1 && end == "" {
		return lines[0]
	}
	size := len(end) + len(sep)*(len(lines)-1)
	for _, ln := range lines {
		size += len(ln)
	}
	var sb strings.Builder
	sb.Grow(size)
	for i, ln := range lines {
		if i > 0 {
			sb.WriteString(sep)
		}
		sb.WriteString(ln)
	}
	sb.WriteString(end)
	return sb.String()
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
func (b *builder) parseFlowOrScalar(s string, line int) (*Node, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return b.node(NullKind), nil
	}
	if s[0] == '[' || s[0] == '{' {
		fp := flowParser{b: b, src: s, line: line}
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
	return b.scalarFromString(s, line), nil
}

func (b *builder) scalarFromString(s string, line int) *Node {
	var n *Node
	switch {
	case len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"':
		unq, err := strconv.Unquote(s)
		if err != nil {
			// Permit simple double-quoted strings Go's Unquote rejects.
			unq = s[1 : len(s)-1]
		}
		n = b.node(StringKind)
		n.Str, n.Quoted = unq, true
	case len(s) >= 2 && s[0] == '\'' && s[len(s)-1] == '\'':
		n = b.node(StringKind)
		n.Str, n.Quoted = strings.ReplaceAll(s[1:len(s)-1], "''", "'"), true
	default:
		n = b.inferScalar(s)
	}
	n.Line = line
	return n
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
// Text with a hexadecimal prefix, no 'p' exponent and no underscore
// (a mangled "0.0.0.0" or cron line) is read by neither base 10 nor
// ParseFloat, which wants the exponent; strconv sees it only when it is
// a base-16 integer, so that a refusal does not cost an error value.
func strconvKind(s string) Kind {
	if strings.IndexAny(s, "pP_") < 0 {
		if hex, ok := cutHexPrefix(s); ok && isHexInt(hex) {
			if _, err := strconv.ParseInt(hex, 16, 64); err == nil {
				return IntKind
			}
		}
		return StringKind
	}
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

// cutHexPrefix returns s after a leading "0x" or "0X".
func cutHexPrefix(s string) (string, bool) {
	if len(s) > 1 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X') {
		return s[2:], true
	}
	return s, false
}

// isHexInt reports whether s is an optional sign and hexadecimal digits,
// the text strconv.ParseInt(s, 16, 64) reads when the value fits.
func isHexInt(s string) bool {
	if s != "" && (s[0] == '+' || s[0] == '-') {
		s = s[1:]
	}
	for i := 0; i < len(s); i++ {
		if c := s[i] | 0x20; !isDigit(s[i]) && (c < 'a' || c > 'f') {
			return false
		}
	}
	return s != ""
}

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
func (b *builder) inferScalar(s string) *Node {
	n := b.node(inferKind(s))
	switch n.Kind {
	case BoolKind:
		n.Bool = s[0] == 't' || s[0] == 'T'
	case IntKind:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			i, _ = strconv.ParseInt(s[2:], 16, 64) // inferKind saw the 0x form parse
		}
		n.Int = i
	case FloatKind:
		n.Float, _ = strconv.ParseFloat(s, 64) // inferKind saw it parse
	case StringKind:
		n.Str = s
	}
	return n
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
	b    *builder
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
	s, base := f.b.node(SeqKind), len(f.b.items)
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
		f.b.items = append(f.b.items, item)
		f.skipSpace()
		if f.pos >= len(f.src) {
			return nil, errAt(f.line, "unterminated flow sequence")
		}
		switch f.src[f.pos] {
		case ',':
			f.pos++
		case ']':
			f.pos++
			f.b.closeSequence(s, base)
			return s, nil
		default:
			return nil, errAt(f.line, "unexpected %q in flow sequence", f.src[f.pos])
		}
	}
}

func (f *flowParser) parseMap() (*Node, error) {
	f.pos++ // consume '{'
	n, m := f.b.node(MapKind), f.b.openMapping()
	f.skipSpace()
	if f.pos < len(f.src) && f.src[f.pos] == '}' {
		f.pos++
		return n, nil
	}
	for {
		// The key node is read as text and left behind: what it counted
		// is not copied out.
		counted := f.b.n
		keyNode, err := f.parseValue()
		if err != nil {
			return nil, err
		}
		key := keyNode.ScalarString()
		f.b.n = counted
		f.skipSpace()
		if f.pos >= len(f.src) || f.src[f.pos] != ':' {
			return nil, errAt(f.line, "expected ':' in flow mapping")
		}
		f.pos++
		val, err := f.parseValue()
		if err != nil {
			return nil, err
		}
		// A repeated key keeps its first place and takes the last value.
		if i := f.b.find(&m, key); i >= 0 {
			f.b.forget(f.b.ents[m.base+i].Value)
			f.b.ents[m.base+i].Value = val
		} else {
			f.b.add(&m, key, val)
		}
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
			f.b.closeMapping(n, m)
			return n, nil
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
			return f.b.scalarFromString(f.src[start:f.pos], f.line), nil
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
		return f.b.node(NullKind), nil
	}
	n := f.b.inferScalar(txt)
	n.Line = f.line
	return n, nil
}

func firstNonZero(a, b int) int {
	if a != 0 {
		return a
	}
	return b
}
