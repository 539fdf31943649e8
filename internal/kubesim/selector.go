package kubesim

import (
	"fmt"
	"strings"

	"cloudeval/internal/yamlx"
)

// Selector is a parsed label selector: key=value requirements that must
// all hold. The zero value (nil) selects everything. It is parsed once
// per command by AppendSelector and then only read, so one value serves
// every object a list or a wait looks at.
type Selector []requirement

// requirement is one term of a selector: the label key holds value.
type requirement struct {
	key, value string
}

// matches reports whether a metadata.labels node (nil when the object
// has none) satisfies the requirement.
func (r requirement) matches(labels *yamlx.Node) bool {
	lv := labels.Get(r.key)
	return lv != nil && lv.ScalarString() == r.value
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

// AppendSelector parses the -l/--selector form the corpus's scripts
// write: comma-separated key=value (or key==value) requirements. The
// empty string selects everything. kubectl's other forms — key!=value,
// "key in (a,b)", "key notin (a,b)", key and !key — are refused by
// name, and anything kubectl cannot parse is its error, worded as
// kubectl words it: never a selector that matches all, because a typo
// in a script's selector must fail the script, not pass it on every
// pod.
//
// It appends the requirements it parses to dst, which it returns
// extended; a nil dst parses into fresh storage. A caller that parses
// each command's selector into the storage of the last one's (dst[:0])
// allocates nothing. The requirements' strings are substrings of s. On
// an error it returns nil.
func AppendSelector(dst Selector, s string) (Selector, error) {
	p := selectorParser{rest: s}
	if p.peek() == "" {
		return dst, nil
	}
	sel := dst
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

// unsupported refuses a selector form kubectl reads and the corpus
// does not write.
func unsupported(form string) error {
	return fmt.Errorf("selector form %q is not supported: use key=value", form)
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
		return requirement{}, unsupported("!key")
	}
	if !isIdentifier(tok) {
		return requirement{}, parseError(tok, "identifier")
	}
	r := requirement{key: tok}
	switch op := p.peek(); op {
	case "", ",":
		return requirement{}, unsupported("key")
	case "=", "==":
		p.next()
		// The value may be empty ("key=" selects the empty label).
		if v := p.peek(); isIdentifier(v) {
			p.next()
			r.value = unquote(v)
		}
		return r, nil
	case "!=":
		return requirement{}, unsupported("key!=value")
	case "in", "notin":
		return requirement{}, unsupported("key " + op + " (…)")
	default:
		return requirement{}, parseError(op, "in, notin, =, ==, !=")
	}
}

// unquote drops quotes a script left around a value (-l "app='web'").
func unquote(v string) string { return strings.Trim(v, `"'`) }
