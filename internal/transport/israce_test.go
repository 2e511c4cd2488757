//go:build race

package transport

// raceEnabled reports that the race detector is active; allocation counts
// are not meaningful under it.
const raceEnabled = true
