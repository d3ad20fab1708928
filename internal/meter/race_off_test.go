//go:build !race

package meter_test

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
