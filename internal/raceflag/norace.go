//go:build !race

package raceflag

// Enabled is true under -race.
const Enabled = false
