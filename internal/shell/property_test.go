package shell

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// randomScript assembles a syntactically valid script from grammar
// fragments, exercising the parser and evaluator broadly.
func randomScript(r *rand.Rand) string {
	var sb strings.Builder
	vars := []string{"a", "b", "c"}
	vals := []string{"1", "42", "hello", "x y z", ""}
	stmts := 1 + r.Intn(6)
	for i := 0; i < stmts; i++ {
		switch r.Intn(7) {
		case 0:
			sb.WriteString(vars[r.Intn(3)] + "=" + quoteMaybe(vals[r.Intn(len(vals))], r) + "\n")
		case 1:
			sb.WriteString("echo $" + vars[r.Intn(3)] + "\n")
		case 2:
			sb.WriteString("if [ \"$" + vars[r.Intn(3)] + "\" == \"42\" ]; then\n  echo yes\nelse\n  echo no\nfi\n")
		case 3:
			sb.WriteString("for x in 1 2 3; do echo $x; done\n")
		case 4:
			sb.WriteString("echo data | grep " + []string{"da", "zz", "a"}[r.Intn(3)] + " || echo miss\n")
		case 5:
			sb.WriteString("((n" + vars[r.Intn(3)] + "++))\n")
		default:
			sb.WriteString("x=$(echo sub); echo \"[$x]\"\n")
		}
	}
	return sb.String()
}

func quoteMaybe(s string, r *rand.Rand) string {
	switch r.Intn(3) {
	case 0:
		return "\"" + s + "\""
	case 1:
		return "'" + s + "'"
	default:
		if s == "" || strings.Contains(s, " ") {
			return "\"" + s + "\""
		}
		return s
	}
}

// TestPropertyScriptsNeverPanicAndTerminate: any grammar-generated
// script parses, runs to completion and stays within the step budget.
func TestPropertyScriptsNeverPanicAndTerminate(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 500,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(randomScript(r))
		},
	}
	prop := func(script string) bool {
		in := New()
		in.MaxSteps = 10000
		res, err := runOn(in, script)
		if err != nil {
			t.Logf("script failed to run: %v\n%s", err, script)
			return false
		}
		return res.ExitCode != 124 // never hits the runaway guard
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestPropertyRunIsDeterministic: the same script in a fresh
// interpreter produces identical output.
func TestPropertyRunIsDeterministic(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 300,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(randomScript(r))
		},
	}
	prop := func(script string) bool {
		r1, err1 := runOn(New(), script)
		r2, err2 := runOn(New(), script)
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		return r1 == r2
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestPropertyArithmeticMatchesGo: the arithmetic evaluator agrees with
// Go on random sums of literals and variables, and a postfix ++ reads
// the old value and stores the next.
func TestPropertyArithmeticMatchesGo(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 500,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(int64(r.Intn(200) - 100))
			vals[1] = reflect.ValueOf(int64(r.Intn(99) + 1))
			vals[2] = reflect.ValueOf(int64(r.Intn(200) - 100))
		},
	}
	prop := func(a, b, c int64) bool {
		in := New()
		in.Env["a"], in.Env["c"] = itoa64(a), itoa64(c)
		expr := sprintf("a + %d - c++ -%d+a", b, b)
		got, err := in.evalArith(expr)
		if err != nil {
			return false
		}
		return got == a+b-c-b+a && in.Env["c"] == itoa64(c+1)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func sprintf(format string, args ...any) string {
	var sb strings.Builder
	_, _ = fmtFprintf(&sb, format, args...)
	return sb.String()
}

// fmtFprintf avoids importing fmt solely for the helper above.
func fmtFprintf(sb *strings.Builder, format string, args ...any) (int, error) {
	s := format
	for _, a := range args {
		idx := strings.Index(s, "%d")
		if idx < 0 {
			break
		}
		sb.WriteString(s[:idx])
		sb.WriteString(itoa64(a.(int64)))
		s = s[idx+2:]
	}
	sb.WriteString(s)
	return sb.Len(), nil
}

func itoa64(v int64) string {
	if v < 0 {
		return "-" + itoa64(-v)
	}
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	p := len(buf)
	for v > 0 {
		p--
		buf[p] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[p:])
}
