package shell

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"cloudeval/internal/augment"
	"cloudeval/internal/dataset"
)

// The expander the interpreter ran on until words were compiled at
// parse time, moved here verbatim (the oracle prefix aside): it scans
// the raw text of a word on every call, executing what it finds as it
// goes. It is no longer a production path; it is what
// FuzzWordMatchesOracle holds the compiled expander to, on value,
// error text, side effects and steps charged.

// oracleWordPart is a fragment of an expanded word, tagged with whether it was
// quoted (quoted fragments never undergo field splitting or globbing).
type oracleWordPart struct {
	text   string
	quoted bool
}

// oraclePlainWord reports whether a raw word contains no quoting, escaping or
// substitution syntax, i.e. it expands to exactly itself. Such words —
// the overwhelming majority of argv words in unit-test scripts — skip
// the expansion machinery entirely.
func oraclePlainWord(raw string) bool {
	for i := 0; i < len(raw); i++ {
		switch raw[i] {
		case '\'', '"', '\\', '$':
			return false
		}
	}
	return true
}

// oracleExpandParts interprets quotes, backslashes, variables, command and
// arithmetic substitution inside a raw word.
func (in *Interp) oracleExpandParts(raw string) ([]oracleWordPart, error) {
	var parts []oracleWordPart
	var cur strings.Builder
	curQuoted := false
	flush := func(quoted bool) {
		if cur.Len() > 0 || quoted {
			parts = append(parts, oracleWordPart{text: cur.String(), quoted: curQuoted})
			cur.Reset()
		}
	}
	i := 0
	for i < len(raw) {
		c := raw[i]
		switch c {
		case '\'':
			end := strings.IndexByte(raw[i+1:], '\'')
			if end < 0 {
				return nil, fmt.Errorf("unterminated single quote")
			}
			flush(false)
			curQuoted = true
			cur.WriteString(raw[i+1 : i+1+end])
			flush(true)
			curQuoted = false
			i += end + 2
		case '"':
			content, n, err := oracleScanDoubleQuoted(raw[i:])
			if err != nil {
				return nil, err
			}
			expanded, err := in.oracleExpandInDouble(content)
			if err != nil {
				return nil, err
			}
			flush(false)
			curQuoted = true
			cur.WriteString(expanded)
			flush(true)
			curQuoted = false
			i += n
		case '\\':
			if i+1 < len(raw) {
				flush(false)
				curQuoted = true
				cur.WriteByte(raw[i+1])
				flush(true)
				curQuoted = false
				i += 2
			} else {
				i++
			}
		case '$':
			val, n, err := in.oracleExpandDollar(raw[i:])
			if err != nil {
				return nil, err
			}
			cur.WriteString(val)
			i += n
		default:
			cur.WriteByte(c)
			i++
		}
	}
	flush(false)
	return parts, nil
}

// oracleScanDoubleQuoted returns the content between double quotes and the
// total bytes consumed including both quotes.
func oracleScanDoubleQuoted(s string) (string, int, error) {
	var b strings.Builder
	i := 1
	for i < len(s) {
		switch s[i] {
		case '\\':
			if i+1 < len(s) {
				b.WriteByte('\\')
				b.WriteByte(s[i+1])
				i += 2
				continue
			}
			i++
		case '"':
			return b.String(), i + 1, nil
		default:
			b.WriteByte(s[i])
			i++
		}
	}
	return "", 0, fmt.Errorf("unterminated double quote")
}

// oracleExpandInDouble expands $-substitutions inside a double-quoted string.
func (in *Interp) oracleExpandInDouble(content string) (string, error) {
	var b strings.Builder
	i := 0
	for i < len(content) {
		c := content[i]
		switch c {
		case '\\':
			if i+1 < len(content) {
				nxt := content[i+1]
				if nxt == '$' || nxt == '`' || nxt == '"' || nxt == '\\' {
					b.WriteByte(nxt)
					i += 2
					continue
				}
			}
			b.WriteByte('\\')
			i++
		case '$':
			val, n, err := in.oracleExpandDollar(content[i:])
			if err != nil {
				return "", err
			}
			b.WriteString(val)
			i += n
		default:
			b.WriteByte(c)
			i++
		}
	}
	return b.String(), nil
}

// oracleExpandDollar expands one $-form at the start of s, returning the value
// and bytes consumed.
func (in *Interp) oracleExpandDollar(s string) (string, int, error) {
	if len(s) < 2 {
		return "$", 1, nil
	}
	switch {
	case strings.HasPrefix(s, "$(("):
		inner, n, err := balanced(s[1:], "((", "))")
		if err != nil {
			return "", 0, err
		}
		v, err := in.evalArith(inner)
		if err != nil {
			return "", 0, err
		}
		return fmt.Sprint(v), 1 + n, nil
	case strings.HasPrefix(s, "$("):
		inner, n, err := balanced(s[1:], "(", ")")
		if err != nil {
			return "", 0, err
		}
		out, err := in.oracleCaptureSub(inner)
		if err != nil {
			return "", 0, err
		}
		return out, 1 + n, nil
	case strings.HasPrefix(s, "${"):
		inner, n, err := balanced(s[1:], "{", "}")
		if err != nil {
			return "", 0, err
		}
		return in.oracleParamValue(inner), 1 + n, nil
	case s[1] == '?':
		return fmt.Sprint(in.lastExit), 2, nil
	case s[1] == '#':
		return "0", 2, nil
	default:
		j := 1
		for j < len(s) && (s[j] == '_' || s[j] >= 'a' && s[j] <= 'z' || s[j] >= 'A' && s[j] <= 'Z' || s[j] >= '0' && s[j] <= '9') {
			j++
		}
		if j == 1 {
			return "$", 1, nil
		}
		return in.Env[s[1:j]], j, nil
	}
}

// oracleParamValue handles ${NAME}, ${NAME:-default}, ${#NAME}.
func (in *Interp) oracleParamValue(inner string) string {
	if rest, ok := strings.CutPrefix(inner, "#"); ok {
		return fmt.Sprint(len(in.Env[rest]))
	}
	if idx := strings.Index(inner, ":-"); idx >= 0 {
		name, def := inner[:idx], inner[idx+2:]
		if v := in.Env[name]; v != "" {
			return v
		}
		return def
	}
	return in.Env[inner]
}

// oracleCaptureSub runs a command substitution and returns its stdout with
// trailing newlines trimmed.
func (in *Interp) oracleCaptureSub(script string) (string, error) {
	prog, err := Parse(script)
	if err != nil {
		return "", err
	}
	io := in.getIO()
	defer in.putIO(io)
	in.execList(prog.stmts, io)
	return strings.TrimRight(io.Out.String(), "\n"), nil
}

// oracleExpandFields expands a raw word into argv fields: unquoted expansion
// results undergo IFS whitespace splitting, quoted parts do not.
func (in *Interp) oracleExpandFields(raw string) ([]string, error) {
	if oraclePlainWord(raw) {
		return []string{raw}, nil
	}
	parts, err := in.oracleExpandParts(raw)
	if err != nil {
		return nil, err
	}
	// Fields are accumulated in a builder so that a field assembled
	// from many fragments (adjacent quoted/unquoted parts) costs one
	// final allocation instead of a quadratic chain of string concats.
	var fields []string
	var cur strings.Builder
	open := false // a field is being accumulated
	appendText := func(t string) {
		cur.WriteString(t)
		open = true
	}
	closeField := func() {
		if open {
			fields = append(fields, cur.String())
			cur.Reset()
			open = false
		}
	}
	for _, p := range parts {
		if p.quoted {
			appendText(p.text)
			continue
		}
		rest := p.text
		for len(rest) > 0 {
			idx := strings.IndexAny(rest, " \t\n")
			if idx < 0 {
				appendText(rest)
				break
			}
			if idx > 0 {
				appendText(rest[:idx])
			}
			closeField()
			rest = strings.TrimLeft(rest[idx:], " \t\n")
		}
	}
	closeField()
	return fields, nil
}

// oracleExpandOne expands a raw word into a single string with no field
// splitting (assignments, redirect targets, condition operands).
func (in *Interp) oracleExpandOne(raw string) (string, error) {
	if oraclePlainWord(raw) {
		return raw, nil
	}
	parts, err := in.oracleExpandParts(raw)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, p := range parts {
		b.WriteString(p.text)
	}
	return b.String(), nil
}

// oracleExpandPattern expands a word for use as a glob pattern: text that was
// quoted has its glob metacharacters escaped so only unquoted * and ?
// act as wildcards.
func (in *Interp) oracleExpandPattern(raw string) (string, error) {
	parts, err := in.oracleExpandParts(raw)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, p := range parts {
		if p.quoted {
			b.WriteString(oracleEscapeGlob(p.text))
		} else {
			b.WriteString(p.text)
		}
	}
	return b.String(), nil
}

func oracleEscapeGlob(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '*', '?', '[', ']', '\\':
			b.WriteByte('\\')
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

// fuzzInterp builds a small interpreter state from a seed: a handful of
// variables holding the values that split, glob and vanish differently,
// a file, and a last exit status.
func fuzzInterp(seed uint64) *Interp {
	in := New()
	in.MaxSteps = 500
	values := []string{"", "v", "a b", " lead", "trail ", "two  spaces", "*?[x]\\", "line1\nline2\n", "'q'\"d\"", "$x"}
	for _, name := range []string{"x", "e", "a", "b", "COUNT", "pod"} {
		if v := values[seed%uint64(len(values))]; v != "" || seed&1 == 0 {
			in.Env[name] = v
		}
		seed /= 3
	}
	in.FS["f"] = "content\n"
	in.lastExit = int(seed % 3)
	return in
}

// expansion is everything one expansion of a word can be observed to
// have done.
type expansion struct {
	Fields []string
	Text   string
	Err    string
	Env    map[string]string
	FS     map[string]string
	Steps  int
	Exited bool
}

func observe(in *Interp, fields []string, text string, err error) expansion {
	e := expansion{Fields: fields, Text: text, Env: in.Env, FS: in.FS, Steps: in.steps, Exited: in.exited}
	if err != nil {
		e.Err = err.Error()
	}
	return e
}

func tooDeep(e expansion) bool { return strings.Contains(e.Err, "nested more than") }

// wordSeeds is every word, and every assignment value, of every
// distinct unit-test script of the augmented corpus.
func wordSeeds(t testing.TB) []string {
	seen := map[string]bool{}
	var out []string
	add := func(w string) {
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	for _, p := range augment.ExpandCorpus(dataset.Generate()) {
		if seen[p.UnitTest] {
			continue
		}
		seen[p.UnitTest] = true
		toks, err := lex(p.UnitTest)
		if err != nil {
			t.Fatalf("%s: %v", p.ID, err)
		}
		for _, tok := range toks {
			if tok.kind != tokWord {
				continue
			}
			add(tok.text)
			if _, val, ok := splitAssign(tok.text); ok {
				add(val)
			}
		}
	}
	return out
}

// FuzzWordMatchesOracle: for any raw word and any seeded interpreter
// state, the three renditions of the compiled word — argv fields,
// unsplit text, glob pattern — equal the oracle's, and so do the error
// text, the variables and files left behind, the steps charged and
// whether the script exited.
func FuzzWordMatchesOracle(f *testing.F) {
	for _, w := range wordSeeds(f) {
		f.Add(w, uint64(len(w)))
	}
	for i, w := range []string{
		"", `"$x"`, `$x`, `a"b"'c'\d$e`, `'unterminated`, `"unterminated`, "`unterminated", `$(unterminated`,
		`${unterminated`, `$((1+`, `a$`, `$#`, `$?`, `trailing\`, `$(echo $(echo x))`, "\"\\`echo tick\\`\"",
		`$(echo side > g)$(if)`, `$(x=changed)"unterminated`, `"$(echo "nested quotes")"`, `${x:-fallback}`, `${#x}`,
		`$((COUNT + 1))`, `$(( $(echo 2) * 3 ))`, `pre"$a"post`, `''`, `""`, `''$x`, `"a\$b\q"`, `*"*"\*`, `$(exit 3)$?`,
		`$(cat f)`, `"$(echo -e 'a\n\n')"`, `$(while true; do :; done)`,
	} {
		for seed := uint64(0); seed < 4; seed++ {
			f.Add(w, seed*7+uint64(i))
		}
	}
	f.Fuzz(func(t *testing.T, raw string, envSeed uint64) {
		if oraclePlainWord(raw) && (raw == "" || strings.ContainsAny(raw, " \t\n")) {
			// The oracle's fast path hands back a plain word as one
			// field, its slow path would split it, and drop it when
			// empty; the lexer ends a word at whitespace and never
			// yields an empty one, so neither path ever saw these.
			t.Skip()
		}

		in := fuzzInterp(envSeed)
		w := argWord(raw, 0)
		fields, err := in.expandFields(nil, &w)
		got := observe(in, fields, "", err)
		in = fuzzInterp(envSeed)
		fields, err = in.oracleExpandFields(raw)
		if want := observe(in, fields, "", err); !tooDeep(got) && !reflect.DeepEqual(got, want) {
			t.Errorf("expandFields(%q) seed %d:\n got %+v\nwant %+v", raw, envSeed, got, want)
		}

		for _, pattern := range []bool{false, true} {
			in = fuzzInterp(envSeed)
			w = textWord(raw, 0, pattern)
			var text string
			if pattern {
				text, err = in.expandPattern(&w)
			} else {
				text, err = in.expandOne(&w)
			}
			got = observe(in, nil, text, err)
			in = fuzzInterp(envSeed)
			if pattern {
				text, err = in.oracleExpandPattern(raw)
			} else {
				text, err = in.oracleExpandOne(raw)
			}
			if want := observe(in, nil, text, err); !tooDeep(got) && !reflect.DeepEqual(got, want) {
				t.Errorf("pattern=%v expansion of %q seed %d:\n got %+v\nwant %+v", pattern, raw, envSeed, got, want)
			}
		}
	})
}

// TestSubstitutionDepthBounded: compiling is recursive in the nesting
// of command substitutions, so Parse stops at maxSubDepth and the word
// fails — when a run reaches it, like any other word that cannot be
// scanned. Here the failing word is itself inside substitutions, whose
// stderr goes nowhere: what shows is that it produced nothing.
func TestSubstitutionDepthBounded(t *testing.T) {
	nest := func(n int) string {
		return "echo before; echo " + strings.Repeat("$(echo ", n) + "x" + strings.Repeat(")", n) + "; echo after"
	}
	res, err := New().Run(nest(maxSubDepth))
	if err != nil || res.Stdout != "before\nx\nafter\n" {
		t.Errorf("depth %d: %+v, %v", maxSubDepth, res, err)
	}
	res, err = New().Run(nest(maxSubDepth + 1))
	if err != nil || res.Stdout != "before\n\nafter\n" {
		t.Errorf("depth %d: %+v, %v", maxSubDepth+1, res, err)
	}
	if seg := compileSub("echo x", maxSubDepth); seg.kind != segErr || !strings.Contains(seg.err.Error(), fmt.Sprintf("nested more than %d deep", maxSubDepth)) {
		t.Errorf("substitution at depth %d compiled to %+v", maxSubDepth, seg)
	}
}

// FuzzRunTerminates: whatever the script, Parse and Run return — no
// panic, and no more nodes executed than MaxSteps allows.
func FuzzRunTerminates(f *testing.F) {
	seen := map[string]bool{}
	for _, p := range augment.ExpandCorpus(dataset.Generate()) {
		if !seen[p.UnitTest] {
			seen[p.UnitTest] = true
			f.Add(p.UnitTest)
		}
	}
	for _, s := range []string{
		sharedASTScript, "", "\\", "echo \\", "x=$(", "while true; do :; done", "until false; do x=$((x+1)); done",
		"for i in 1 2 3 4 5; do echo $i | grep -o 1; done", "[ a == a ] && [[ b != c ]] || exit 2", "echo $(($(echo 1)+1)) > f; cat < f",
		"if then fi", "for", "for x in", "[[ a == ", "(( 1 / 0 ))", "echo `echo \\`", "wc -l f | head -n 1", "head -n -1 <f", "exit 7; echo no",
		"echo " + strings.Repeat("$(", maxSubDepth+2) + strings.Repeat(")", maxSubDepth+2),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, script string) {
		prog, err := Parse(script)
		if err != nil {
			return
		}
		in := New()
		in.MaxSteps = 300
		in.Exec(prog)
		if in.steps > in.MaxSteps+1 {
			t.Errorf("%d steps executed, limit %d", in.steps, in.MaxSteps)
		}
	})
}
