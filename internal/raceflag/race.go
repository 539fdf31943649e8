//go:build race

// Package raceflag reports whether the race detector is compiled in.
// Tests that pin allocation counts need to know: under the detector a
// sync.Pool drops a quarter of what is put back, on purpose, so pooled
// scratch is not reliably reused.
package raceflag

// Enabled is true under -race.
const Enabled = true
