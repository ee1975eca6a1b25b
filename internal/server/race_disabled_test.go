//go:build !race

package server

// raceEnabled reports that the race detector is active: its
// instrumentation allocates, so allocation gates are skipped.
const raceEnabled = false
