//go:build race

package paillier

// raceEnabled reports that the race detector is active; it instruments
// allocations, so exact allocation pinning is meaningless there.
const raceEnabled = true
