package stage

import (
	"context"
	"runtime/pprof"
	"testing"
)

// TestSetAllocs: entering a stage allocates nothing, so the stages can
// stay in every hot path.
func TestSetAllocs(t *testing.T) {
	defer Clear()
	if n := testing.AllocsPerRun(1000, func() { Set(Provider); Set(Shell) }); n != 0 {
		t.Errorf("Set allocates %v times per pair of calls, want 0", n)
	}
}

// TestNamesRoundTrip: every stage has a distinct name that Parse reads
// back, and its label set carries that name.
func TestNamesRoundTrip(t *testing.T) {
	seen := map[string]bool{}
	for s := range Count {
		name := s.String()
		if name == "" || seen[name] {
			t.Fatalf("stage %d: name %q empty or repeated", s, name)
		}
		seen[name] = true
		if got, ok := ByName(name); !ok || got != s {
			t.Errorf("ByName(%q) = %v, %v, want %v", name, got, ok, s)
		}
		if v, ok := pprof.Label(labels[s], Key); !ok || v != name {
			t.Errorf("stage %v: label %q = %q, %v", s, Key, v, ok)
		}
	}
	if _, ok := ByName("nonesuch"); ok {
		t.Error(`ByName("nonesuch") found a stage`)
	}
	if _, ok := pprof.Label(context.Background(), Key); ok {
		t.Error("the background context carries a stage")
	}
}
