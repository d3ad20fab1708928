//go:build race

package serve

// raceEnabled reports whether the race detector is compiled in. Allocation
// counts are not asserted under it: its runtime allocates on its own
// account inside the measured calls.
const raceEnabled = true
