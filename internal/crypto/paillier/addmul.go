//go:build !math_big_pure_go

package paillier

import (
	"math/big"
	_ "unsafe" // for go:linkname
)

// addMulVVW adds x·y into z, len(z) == len(x), and returns the carry word.
// It is math/big's own row — the assembly inner loop of its
// multiplication — which math/big keeps linkable on purpose: "Do not remove
// or change the type signature" (go.dev/issue/67401). A math/big built
// with the math_big_pure_go tag does not export it; addmul_purego.go is the
// row in that build.
//
//go:linkname addMulVVW math/big.addMulVVW
//go:noescape
func addMulVVW(z, x []big.Word, y big.Word) (c big.Word)
