//go:build !race

package ope

const raceEnabled = false
