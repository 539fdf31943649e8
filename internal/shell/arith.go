package shell

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// evalArith evaluates the arithmetic the corpus writes, ((n++)), and
// the polling idiom's n=$((n+1)): integers and variable names (unset or
// non-numeric reads as 0) joined by binary + and -, and a name's
// postfix ++. Any other operator is refused by name, and the whole
// expression is checked before a variable changes, so an expression
// either means what bash means or is an error.
func (in *Interp) evalArith(src string) (int64, error) {
	if _, err := in.sum(src, false); err != nil {
		return 0, fmt.Errorf("arithmetic %q: %w", src, err)
	}
	return in.sum(src, true)
}

// sum evaluates src, storing what its ++ operators write only when
// apply is set.
func (in *Interp) sum(src string, apply bool) (int64, error) {
	var v int64
	s := trimArith(src)
	neg := false
	for {
		if s == "" {
			return 0, errors.New("unexpected end of expression")
		}
		var n int64
		digits := len(s) - len(strings.TrimLeft(s, "0123456789"))
		switch i := len(s) - len(strings.TrimLeft(s, nameChars)); {
		case digits > 0:
			var err error
			if n, err = strconv.ParseInt(s[:digits], 10, 64); err != nil {
				return 0, err
			}
			s = s[digits:]
		case i > 0:
			name := s[:i]
			n, _ = strconv.ParseInt(in.Env[name], 10, 64)
			if s = trimArith(s[i:]); strings.HasPrefix(s, "++") {
				s = s[2:]
				if apply {
					in.Env[name] = strconv.FormatInt(n+1, 10)
				}
			}
		default:
			return 0, unsupportedArith(s)
		}
		if neg {
			n = -n
		}
		v += n
		if s = trimArith(s); s == "" {
			return v, nil
		}
		if s[0] != '+' && s[0] != '-' || len(s) > 1 && (s[1] == s[0] || s[1] == '=') {
			return 0, unsupportedArith(s)
		}
		neg = s[0] == '-'
		s = trimArith(s[1:])
	}
}

func trimArith(s string) string { return strings.TrimLeft(s, " \t\n") }

// unsupportedArith refuses the operator s starts with, by its bash
// spelling.
func unsupportedArith(s string) error {
	op := s[:1]
	if len(s) > 1 {
		switch s[:2] {
		case "++", "--", "+=", "-=", "*=", "/=", "%=", "==", "!=", "<=", ">=", "&&", "||", "**", "<<", ">>":
			op = s[:2]
		}
	}
	return fmt.Errorf("%q is not supported", op)
}
