//go:build !race

package mitra

const raceEnabled = false
