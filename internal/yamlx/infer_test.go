package yamlx

import (
	"strconv"
	"strings"
	"testing"

	"cloudeval/internal/raceflag"
)

// inferKindOracle is inferKind as it was before numericKind's byte scan:
// every text that passes looksNumeric goes through strconv, which
// allocates an error for each one it refuses.
func inferKindOracle(s string) Kind {
	switch s {
	case "null", "Null", "NULL", "~":
		return NullKind
	case "true", "True", "TRUE", "false", "False", "FALSE":
		return BoolKind
	}
	if !looksNumeric(s) {
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

// inferKindEdges are the texts near the edges of what strconv accepts.
var inferKindEdges = []string{
	"", "+", "-", ".", "+.", "-.", "0", "-0", "+0", "00", "007", "-007", "1.", ".5", "-.5", "+.5", "1.5", "1..5",
	"1e5", "1E5", "1e+5", "1e-5", "1e", "1e+", "e5", ".e5", "1.e5", ".5e5", "1e5.5", "1e400", "-1e400", "1e-400",
	"9223372036854775807", "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
	"00000000000000000000009223372036854775807", "99999999999999999999", "-99999999999999999999",
	strings.Repeat("9", 400), "0x", "0x1F", "0X1f", "0xg", "0x-5", "0x+5", "-0x1F", "+0x1F", "0x1p3", "-0x1p3",
	"0x1.8p1", "0xFFFFFFFFFFFFFFFF", "0x7FFFFFFFFFFFFFFF", "1_000", "1__0", "_1", "1_", "1_0.5", "0x_1p0",
	"+inf", "-inf", "+Inf", "-INF", "+infinity", "-Infinity", "+infinit", "+infinityx", "inf", "Infinity",
	"+nan", "-NaN", "nan", "NaN", "1.14.2", "8080:80", "3000-3010", "1Gi", "500m", "0.5Gi", "10.244.0.5",
	"1,000", "1 ", " 1", "1\n", "+1", "--1", "+-1", "1-", "2024-01-01", "12:30", "1/2", "٣",
	"0x0.0.0", "0x2 * * *", "0x*/6 * * *", "0x1e5", "0x1.8", "0X1.8P1", "0x1P3", "-0x1p3", "0x1_F", "0x",
	"0x+", "0x-", "0x+-5", "0x8000000000000000", "0x-8000000000000000", "-0x0", "0xx1",
}

// TestInferKindAllocs: the kind of a scalar costs no allocation, number
// or not, unless strconv has the last word (underscores, 'p' exponents,
// overflow).
func TestInferKindAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts under the race detector")
	}
	for _, s := range []string{"8080:80", "1.14.2", "3000-3010", "1Gi", "10.244.0.5", "-", ".", "web", "80", "-1.5e3", "+inf", "true",
		"0x0.0.0", "0x2 * * *", "-0x1F", "0x1F"} {
		if allocs := testing.AllocsPerRun(100, func() { inferKind(s) }); allocs != 0 {
			t.Errorf("inferKind(%q) allocates %.0f times, want 0", s, allocs)
		}
	}
}

// FuzzInferKind holds inferKind to the strconv-only oracle.
func FuzzInferKind(f *testing.F) {
	for _, s := range inferKindEdges {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := inferKind(s), inferKindOracle(s); got != want {
			t.Errorf("inferKind(%q) = %v, the oracle says %v", s, got, want)
		}
	})
}
