package shell

import (
	"fmt"
	"strconv"
	"strings"
)

// evalArith evaluates a bash arithmetic expression: integers, variables
// (unset reads as 0), + - * / %, comparisons, && || !, parentheses,
// assignment (x=, x+=, ...) and postfix/prefix ++ --.
func (in *Interp) evalArith(src string) (int64, error) {
	p := &arithParser{in: in, src: strings.TrimSpace(src)}
	v, err := p.parseExpr()
	if err != nil {
		return 0, fmt.Errorf("arithmetic %q: %w", src, err)
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return 0, fmt.Errorf("arithmetic %q: trailing %q", src, p.src[p.pos:])
	}
	return v, nil
}

type arithParser struct {
	in  *Interp
	src string
	pos int
}

func (p *arithParser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t' || p.src[p.pos] == '\n') {
		p.pos++
	}
}

func (p *arithParser) has(op string) bool {
	p.skipSpace()
	if !strings.HasPrefix(p.src[p.pos:], op) {
		return false
	}
	// Avoid eating "==" as "=", "&&" as "&", "++" as "+".
	after := p.src[p.pos+len(op):]
	switch op {
	case "=", "<", ">":
		if strings.HasPrefix(after, "=") {
			return false
		}
	case "+":
		if strings.HasPrefix(after, "+") || strings.HasPrefix(after, "=") {
			return false
		}
	case "-":
		if strings.HasPrefix(after, "-") || strings.HasPrefix(after, "=") {
			return false
		}
	case "*", "/", "%":
		if strings.HasPrefix(after, "=") {
			return false
		}
	}
	p.pos += len(op)
	return true
}

// parseExpr handles assignment: NAME (=|+=|-=|*=|/=) expr.
func (p *arithParser) parseExpr() (int64, error) {
	save := p.pos
	p.skipSpace()
	name, ok := p.readName()
	if ok {
		p.skipSpace()
		for _, op := range []string{"+=", "-=", "*=", "/=", "="} {
			if p.has(op) {
				rhs, err := p.parseExpr()
				if err != nil {
					return 0, err
				}
				cur, _ := strconv.ParseInt(p.in.Env[name], 10, 64)
				var v int64
				switch op {
				case "=":
					v = rhs
				case "+=":
					v = cur + rhs
				case "-=":
					v = cur - rhs
				case "*=":
					v = cur * rhs
				case "/=":
					if rhs == 0 {
						return 0, fmt.Errorf("division by zero")
					}
					v = cur / rhs
				}
				p.in.Env[name] = strconv.FormatInt(v, 10)
				return v, nil
			}
		}
	}
	p.pos = save
	return p.parseOr()
}

func (p *arithParser) parseOr() (int64, error) {
	v, err := p.parseAnd()
	if err != nil {
		return 0, err
	}
	for p.has("||") {
		r, err := p.parseAnd()
		if err != nil {
			return 0, err
		}
		if v != 0 || r != 0 {
			v = 1
		} else {
			v = 0
		}
	}
	return v, nil
}

func (p *arithParser) parseAnd() (int64, error) {
	v, err := p.parseCmp()
	if err != nil {
		return 0, err
	}
	for p.has("&&") {
		r, err := p.parseCmp()
		if err != nil {
			return 0, err
		}
		if v != 0 && r != 0 {
			v = 1
		} else {
			v = 0
		}
	}
	return v, nil
}

func (p *arithParser) parseCmp() (int64, error) {
	v, err := p.parseAdd()
	if err != nil {
		return 0, err
	}
	for {
		var op string
		switch {
		case p.has("=="):
			op = "=="
		case p.has("!="):
			op = "!="
		case p.has("<="):
			op = "<="
		case p.has(">="):
			op = ">="
		case p.has("<"):
			op = "<"
		case p.has(">"):
			op = ">"
		default:
			return v, nil
		}
		r, err := p.parseAdd()
		if err != nil {
			return 0, err
		}
		var b bool
		switch op {
		case "==":
			b = v == r
		case "!=":
			b = v != r
		case "<=":
			b = v <= r
		case ">=":
			b = v >= r
		case "<":
			b = v < r
		case ">":
			b = v > r
		}
		if b {
			v = 1
		} else {
			v = 0
		}
	}
}

func (p *arithParser) parseAdd() (int64, error) {
	v, err := p.parseMul()
	if err != nil {
		return 0, err
	}
	for {
		switch {
		case p.has("+"):
			r, err := p.parseMul()
			if err != nil {
				return 0, err
			}
			v += r
		case p.has("-"):
			r, err := p.parseMul()
			if err != nil {
				return 0, err
			}
			v -= r
		default:
			return v, nil
		}
	}
}

func (p *arithParser) parseMul() (int64, error) {
	v, err := p.parseUnary()
	if err != nil {
		return 0, err
	}
	for {
		switch {
		case p.has("*"):
			r, err := p.parseUnary()
			if err != nil {
				return 0, err
			}
			v *= r
		case p.has("/"):
			r, err := p.parseUnary()
			if err != nil {
				return 0, err
			}
			if r == 0 {
				return 0, fmt.Errorf("division by zero")
			}
			v /= r
		case p.has("%"):
			r, err := p.parseUnary()
			if err != nil {
				return 0, err
			}
			if r == 0 {
				return 0, fmt.Errorf("division by zero")
			}
			v %= r
		default:
			return v, nil
		}
	}
}

func (p *arithParser) parseUnary() (int64, error) {
	p.skipSpace()
	switch {
	case p.has("!"):
		v, err := p.parseUnary()
		if err != nil {
			return 0, err
		}
		if v == 0 {
			return 1, nil
		}
		return 0, nil
	case strings.HasPrefix(p.src[p.pos:], "++"), strings.HasPrefix(p.src[p.pos:], "--"):
		op := p.src[p.pos : p.pos+2]
		p.pos += 2
		p.skipSpace()
		name, ok := p.readName()
		if !ok {
			return 0, fmt.Errorf("%s needs a variable", op)
		}
		cur, _ := strconv.ParseInt(p.in.Env[name], 10, 64)
		if op == "++" {
			cur++
		} else {
			cur--
		}
		p.in.Env[name] = strconv.FormatInt(cur, 10)
		return cur, nil
	case p.has("-"):
		v, err := p.parseUnary()
		if err != nil {
			return 0, err
		}
		return -v, nil
	}
	return p.parsePrimary()
}

func (p *arithParser) parsePrimary() (int64, error) {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return 0, fmt.Errorf("unexpected end of expression")
	}
	c := p.src[p.pos]
	if c == '(' {
		p.pos++
		v, err := p.parseExpr()
		if err != nil {
			return 0, err
		}
		p.skipSpace()
		if p.pos >= len(p.src) || p.src[p.pos] != ')' {
			return 0, fmt.Errorf("missing )")
		}
		p.pos++
		return v, nil
	}
	if c == '$' {
		// $var or $(...) inside arithmetic: expand then parse as number.
		// Expressions are the one place left that scans a $-form while
		// running; the scanner is the word compiler's.
		seg, n := compileDollar(p.src[p.pos:], 0)
		val, err := p.in.value(&seg)
		if err != nil {
			return 0, err
		}
		p.pos += n
		val = strings.TrimSpace(val)
		if val == "" {
			return 0, nil
		}
		return strconv.ParseInt(val, 10, 64)
	}
	if c >= '0' && c <= '9' {
		j := p.pos
		for j < len(p.src) && p.src[j] >= '0' && p.src[j] <= '9' {
			j++
		}
		v, err := strconv.ParseInt(p.src[p.pos:j], 10, 64)
		p.pos = j
		return v, err
	}
	name, ok := p.readName()
	if !ok {
		return 0, fmt.Errorf("unexpected character %q", c)
	}
	// Postfix ++ / --.
	p.skipSpace()
	if strings.HasPrefix(p.src[p.pos:], "++") || strings.HasPrefix(p.src[p.pos:], "--") {
		op := p.src[p.pos : p.pos+2]
		p.pos += 2
		cur, _ := strconv.ParseInt(p.in.Env[name], 10, 64)
		if op == "++" {
			p.in.Env[name] = strconv.FormatInt(cur+1, 10)
		} else {
			p.in.Env[name] = strconv.FormatInt(cur-1, 10)
		}
		return cur, nil
	}
	v, _ := strconv.ParseInt(p.in.Env[name], 10, 64)
	return v, nil
}

func (p *arithParser) readName() (string, bool) {
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || p.pos > start && c >= '0' && c <= '9' {
			p.pos++
			continue
		}
		break
	}
	if p.pos == start {
		return "", false
	}
	return p.src[start:p.pos], true
}
