//go:build race

package core

// raceEnabled reports that the race detector is active. sync.Pool drops
// items under -race, so exact allocation pins are meaningless there.
const raceEnabled = true
