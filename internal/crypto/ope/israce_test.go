//go:build race

package ope

// raceEnabled reports that the race detector is active. sync.Pool
// deliberately drops items under -race, so exact allocation pinning is
// meaningless there.
const raceEnabled = true
