//go:build !race

package emm

const raceEnabled = false
