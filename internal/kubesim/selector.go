package kubesim

import (
	"fmt"
	"slices"
	"strings"

	"cloudeval/internal/yamlx"
)

// Selector is a parsed label selector: requirements that must all hold.
// The zero value (nil) selects everything. It is parsed once per
// command by ParseSelector and then only read, so one value serves
// every object a list or a wait looks at.
type Selector []requirement

type selectorOp uint8

const (
	opIn        selectorOp = iota // key=v, key==v, key in (a,b)
	opNotIn                       // key!=v, key notin (a,b)
	opExists                      // key
	opNotExists                   // !key
)

// requirement is one term of a selector. The first value is held inline
// so that the common "key=value" term costs no slice of its own.
type requirement struct {
	key   string
	op    selectorOp
	value string   // opIn, opNotIn: the first value
	more  []string // the rest of a set's values
}

// matches reports whether a metadata.labels node (nil when the object
// has none) satisfies the requirement, with Kubernetes' semantics: the
// negative operators also hold when the key is absent.
func (r requirement) matches(labels *yamlx.Node) bool {
	lv := labels.Get(r.key)
	switch r.op {
	case opExists:
		return lv != nil
	case opNotExists:
		return lv == nil
	}
	in := false
	if lv != nil {
		v := lv.ScalarString()
		in = v == r.value || slices.Contains(r.more, v)
	}
	return in == (r.op == opIn)
}

// matches reports whether an object's metadata.labels (nil when it has
// none) satisfy every requirement.
func (s Selector) matches(labels *yamlx.Node) bool {
	for _, r := range s {
		if !r.matches(labels) {
			return false
		}
	}
	return true
}

// ParseSelector parses kubectl's -l/--selector grammar: comma-separated
// requirements of the equality forms key=value, key==value, key!=value,
// the set forms "key in (a,b)" and "key notin (a,b)" — commas inside the
// parentheses do not split — and the existence forms key and !key. The
// empty string selects everything. Anything else is an error worded as
// kubectl words it, never a selector that matches all: a typo in a
// script's selector must fail the script, not pass it on every pod.
func ParseSelector(s string) (Selector, error) {
	p := selectorParser{rest: s}
	if p.peek() == "" {
		return nil, nil
	}
	var sel Selector
	for {
		r, err := p.requirement()
		if err != nil {
			return nil, err
		}
		sel = append(sel, r)
		switch tok := p.next(); tok {
		case "":
			return sel, nil
		case ",":
			if p.peek() == "" {
				return nil, parseError("", "identifier after ','")
			}
		default:
			return nil, parseError(tok, "',' or end of string")
		}
	}
}

func parseError(found, expected string) error {
	return fmt.Errorf("unable to parse requirement: found '%s', expected: %s", found, expected)
}

// selectorParser hands out the tokens of a selector: the punctuation
// "," "(" ")" "!" "=" "==" "!=", and identifiers, which are runs of
// anything else up to a space or punctuation. "" is the end of input.
// The unsupported ">" and "<" are tokens too, so that they are reported
// as what was found rather than folded into a name.
type selectorParser struct{ rest string }

func isSelectorSpace(b byte) bool { return b == ' ' || b == '\t' || b == '\r' || b == '\n' }

func isSelectorPunct(b byte) bool {
	switch b {
	case ',', '(', ')', '!', '=', '<', '>':
		return true
	}
	return isSelectorSpace(b)
}

func (p *selectorParser) next() string {
	s := p.rest
	for s != "" && isSelectorSpace(s[0]) {
		s = s[1:]
	}
	n := 0
	for n < len(s) && !isSelectorPunct(s[n]) {
		n++
	}
	if n == 0 && s != "" {
		n = 1
		if len(s) > 1 && s[1] == '=' && (s[0] == '=' || s[0] == '!') {
			n = 2
		}
	}
	p.rest = s[n:]
	return s[:n]
}

func (p *selectorParser) peek() string {
	save := p.rest
	tok := p.next()
	p.rest = save
	return tok
}

func isIdentifier(tok string) bool { return tok != "" && !isSelectorPunct(tok[0]) }

func (p *selectorParser) requirement() (requirement, error) {
	tok := p.next()
	if tok == "!" {
		key := p.next()
		if !isIdentifier(key) {
			return requirement{}, parseError(key, "identifier")
		}
		return requirement{key: key, op: opNotExists}, nil
	}
	if !isIdentifier(tok) {
		return requirement{}, parseError(tok, "identifier")
	}
	r := requirement{key: tok, op: opExists}
	switch op := p.peek(); op {
	case "", ",":
		return r, nil
	case "=", "==", "!=":
		p.next()
		r.op = opIn
		if op == "!=" {
			r.op = opNotIn
		}
		// The value may be empty ("key=" selects the empty label).
		if v := p.peek(); isIdentifier(v) {
			p.next()
			r.value = unquote(v)
		}
		return r, nil
	case "in", "notin":
		p.next()
		r.op = opIn
		if op == "notin" {
			r.op = opNotIn
		}
		return p.values(r)
	default:
		return requirement{}, parseError(op, "in, notin, =, ==, !=")
	}
}

// values reads the parenthesised, comma-separated, non-empty value list
// of a set requirement.
func (p *selectorParser) values(r requirement) (requirement, error) {
	if tok := p.next(); tok != "(" {
		return requirement{}, parseError(tok, "'('")
	}
	for n := 0; ; n++ {
		v := p.next()
		if !isIdentifier(v) {
			return requirement{}, parseError(v, "identifier")
		}
		if v = unquote(v); n == 0 {
			r.value = v
		} else {
			r.more = append(r.more, v)
		}
		switch tok := p.next(); tok {
		case ")":
			return r, nil
		case ",":
		default:
			return requirement{}, parseError(tok, "',' or ')'")
		}
	}
}

// unquote drops quotes a script left around a value (-l "app='web'").
func unquote(v string) string { return strings.Trim(v, `"'`) }
