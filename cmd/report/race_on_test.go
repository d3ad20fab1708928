//go:build race

package main

// raceEnabled reports whether the race detector is compiled in. The
// results/ regeneration is skipped under it: instrumentation slows the
// full reproduction several-fold, and the internal packages' race runs
// already cover the code it drives.
const raceEnabled = true
