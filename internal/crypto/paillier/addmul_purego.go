//go:build math_big_pure_go

package paillier

import (
	"math/big"
	"math/bits"
)

// addMulVVW adds x·y into z, len(z) == len(x), and returns the carry word:
// the row math/big's pure-Go build runs, which that build does not export
// by linkname.
func addMulVVW(z, x []big.Word, y big.Word) (c big.Word) {
	for i := range z {
		hi, lo := bits.Mul(uint(x[i]), uint(y))
		var cc uint
		lo, cc = bits.Add(lo, uint(z[i]), 0)
		hi += cc
		lo, cc = bits.Add(lo, uint(c), 0)
		z[i], c = big.Word(lo), big.Word(hi+cc)
	}
	return c
}
