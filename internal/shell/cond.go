package shell

import (
	"fmt"
	"strconv"
	"strings"
)

// condParser evaluates a condition over one of two operand lists:
// the compiled words of [[ ... ]], expanded as the evaluation reaches
// them, or the argv of [ ... ] and test, which the command's own
// expansion has already finished. Patterns on the right side of == and
// != are glob-matched with quoted segments literal, bash style, in the
// first form; the second compares literally.
type condParser struct {
	in    *Interp
	words []word   // [[ ]]
	args  []string // [ ] and test
	plain bool     // operands are args
	pos   int
}

// evalCond evaluates a [[ ... ]] condition.
func (in *Interp) evalCond(words []word) (bool, error) {
	return (&condParser{in: in, words: words}).eval()
}

// evalCondExpanded evaluates test/[ conditions, whose operands are
// already expanded argv words.
func (in *Interp) evalCondExpanded(args []string) (bool, error) {
	return (&condParser{in: in, args: args, plain: true}).eval()
}

func (c *condParser) eval() (bool, error) {
	v, err := c.parseOr()
	if err != nil {
		return false, err
	}
	if tok, ok := c.peek(); ok {
		if c.plain && !condSyntax(tok) {
			// An operand of [ is reported the way the shell would have
			// had to write it.
			tok = "'" + strings.ReplaceAll(tok, "'", `'\''`) + "'"
		}
		return false, fmt.Errorf("condition: unexpected %q", tok)
	}
	return v, nil
}

// peek returns the source form of the next operand: what operators and
// parentheses are recognised by.
func (c *condParser) peek() (string, bool) {
	if c.plain {
		if c.pos >= len(c.args) {
			return "", false
		}
		return c.args[c.pos], true
	}
	if c.pos >= len(c.words) {
		return "", false
	}
	return c.words[c.pos].raw, true
}

// value expands operand i.
func (c *condParser) value(i int) (string, error) {
	if c.plain {
		return c.args[i], nil
	}
	return c.in.expandOne(&c.words[i])
}

// condSyntax reports whether an argv word of [ is part of the
// condition grammar rather than an operand.
func condSyntax(a string) bool {
	switch a {
	case "!", "(", ")", "&&", "||", "-a", "-o", "-z":
		return true
	}
	return binaryOps[a]
}

func (c *condParser) parseOr() (bool, error) {
	v, err := c.parseAnd()
	if err != nil {
		return false, err
	}
	for {
		w, ok := c.peek()
		if !ok || w != "||" && w != "-o" {
			return v, nil
		}
		c.pos++
		r, err := c.parseAnd()
		if err != nil {
			return false, err
		}
		v = v || r
	}
}

func (c *condParser) parseAnd() (bool, error) {
	v, err := c.parseNot()
	if err != nil {
		return false, err
	}
	for {
		w, ok := c.peek()
		if !ok || w != "&&" && w != "-a" {
			return v, nil
		}
		c.pos++
		r, err := c.parseNot()
		if err != nil {
			return false, err
		}
		v = v && r
	}
}

func (c *condParser) parseNot() (bool, error) {
	if w, ok := c.peek(); ok && w == "!" {
		c.pos++
		v, err := c.parseNot()
		return !v, err
	}
	return c.parsePrimary()
}

// binaryOps are the comparisons a condition makes: strings, with a
// glob pattern on the right of == = != inside [[ ]], and integers.
var binaryOps = map[string]bool{
	"==": true, "=": true, "!=": true,
	"-eq": true, "-ne": true, "-gt": true, "-ge": true, "-lt": true, "-le": true,
}

// removedUnary are the unary tests the shell no longer evaluates.
var removedUnary = map[string]bool{"-n": true, "-e": true, "-f": true, "-d": true, "-s": true}

// unaryFlag reports whether w is spelled like a unary test, -<letter>.
func unaryFlag(w string) bool {
	return len(w) == 2 && w[0] == '-' && (w[1] >= 'a' && w[1] <= 'z' || w[1] >= 'A' && w[1] <= 'Z')
}

// patternOps take a glob pattern on their right inside [[ ]].
var patternOps = map[string]bool{"==": true, "=": true, "!=": true}

func (c *condParser) parsePrimary() (bool, error) {
	w, ok := c.peek()
	if !ok {
		return false, fmt.Errorf("condition: unexpected end")
	}
	if w == "(" {
		c.pos++
		v, err := c.parseOr()
		if err != nil {
			return false, err
		}
		if nw, ok := c.peek(); !ok || nw != ")" {
			return false, fmt.Errorf("condition: missing )")
		}
		c.pos++
		return v, nil
	}
	if w == "-z" {
		c.pos++
		if _, ok := c.peek(); !ok {
			return false, fmt.Errorf("condition: %s needs an operand", w)
		}
		c.pos++
		val, err := c.value(c.pos - 1)
		return val == "", err
	}
	// word [binop word]
	lhsAt := c.pos
	c.pos++
	opWord, ok := c.peek()
	if !ok || !binaryOps[opWord] {
		if ok && (removedUnary[w] || !c.plain && unaryFlag(w)) {
			// A unary test other than -z. The words of [[ ]] are
			// source text, so any -<letter> there is one; an operand
			// of [ is an expanded value, which may start with '-', so
			// there only the operators the shell dropped are refused.
			return false, fmt.Errorf("condition: %s is not supported", w)
		}
		// Bare word: true when non-empty.
		val, err := c.value(lhsAt)
		return val != "", err
	}
	c.pos++
	if _, ok := c.peek(); !ok {
		return false, fmt.Errorf("condition: %s needs a right operand", opWord)
	}
	rhsAt := c.pos
	c.pos++
	lhs, err := c.value(lhsAt)
	if err != nil {
		return false, err
	}
	if patternOps[opWord] && !c.plain {
		pat, err := c.in.expandPattern(&c.words[rhsAt])
		if err != nil {
			return false, err
		}
		return globMatch(pat, lhs) == (opWord != "!="), nil
	}
	rhs, err := c.value(rhsAt)
	if err != nil {
		return false, err
	}
	switch opWord {
	case "==", "=":
		return lhs == rhs, nil
	case "!=":
		return lhs != rhs, nil
	}
	// numeric comparisons
	ln, err1 := strconv.ParseInt(strings.TrimSpace(lhs), 10, 64)
	rn, err2 := strconv.ParseInt(strings.TrimSpace(rhs), 10, 64)
	if err1 != nil || err2 != nil {
		return false, fmt.Errorf("condition: integer expression expected: %q %s %q", lhs, opWord, rhs)
	}
	switch opWord {
	case "-eq":
		return ln == rn, nil
	case "-ne":
		return ln != rn, nil
	case "-gt":
		return ln > rn, nil
	case "-ge":
		return ln >= rn, nil
	case "-lt":
		return ln < rn, nil
	}
	return ln <= rn, nil // -le
}
