package paillier

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"math/bits"
)

// Masks without an exponentiation. y ↦ y^f mod f² carries Z*_f one to one
// onto T_f, the order-(f-1) subgroup of Z*_{f²} that holds the n-th residues
// (privatekey.go), and T_f is cyclic: for a generator G of T_f and r uniform
// in [0, f-1), G^r mod f² is a uniform element of T_f — the distribution the
// per-mask y^f had. G is fixed per key, so G^r is a fixed-base
// exponentiation: write r in base 2^maskWindow, keep G^(j·2^(maskWindow·i))
// for every digit position i and digit value j ≥ 1, and the power is the
// product of one table entry per non-zero digit — no squarings.
//
// The table is key-equivalent — gcd(e₁² - e₂, n) = f for its first two
// entries — so it lives only in process memory and is rebuilt from a fresh
// base at every start. Which entries a mask reads depends on the secret r,
// as the window lookups of math/big's Exp already did; DESIGN.md ("Paillier
// key at rest and fast paths") has the threat-model note and the one
// residual assumption behind the generator check.

// maskWindow is the digit width in bits, picked by measurement
// (EXPERIMENTS.md "Fixed-base Paillier masks": 6, 7 and 8 compared). At 8 a
// 512-bit factor costs 64 multiplications per half mask at worst and
// 64·255 entries of 128 bytes — 2 MiB per factor, 4 MiB per 1024-bit key,
// and four times that per doubling of the key size.
const maskWindow = 8

// maskDigits is the number of table entries per window: one per non-zero
// digit value.
const maskDigits = 1<<maskWindow - 1

// smallPrimeBound bounds the primes the generator check rules out as
// divisors of the base's index in T_f.
const smallPrimeBound = 1 << 16

// maskTable is the fixed-base table for one prime factor f of n. It is
// read-only once built.
type maskTable struct {
	fm1, ff *big.Int // f-1 (the order of T_f), f²
	g       *big.Int // the base: a generator of T_f up to the generator check
	windows int      // digits in an exponent below f-1
	words   int      // words per entry, len(ff.Bits())
	// tab is one flat, pointer-free slab: entry (i, j), 1 ≤ j < 2^maskWindow,
	// is G^(j·2^(maskWindow·i)) mod f², zero-padded to words, at offset
	// (i·maskDigits + j-1)·words. A slab keeps ~32 000 entries out of
	// the garbage collector's sight.
	tab []big.Word
}

// newMaskTable draws a base for the factor f and builds its table.
func newMaskTable(f, fm1, ff *big.Int) (*maskTable, error) {
	small := smallPrimeDivisors(fm1)
	var g *big.Int
	for g == nil {
		y, err := randBelow(fm1) // [0, f-2]
		if err != nil {
			return nil, err
		}
		y.Add(y, one) // uniform in Z*_f = [1, f-1]
		if generatesUpTo(y, f, fm1, small) {
			g = y.Exp(y, f, ff)
		}
	}
	t := &maskTable{
		fm1: fm1, ff: ff, g: g,
		windows: (fm1.BitLen() + maskWindow - 1) / maskWindow,
		words:   len(ff.Bits()),
	}
	t.tab = make([]big.Word, t.windows*maskDigits*t.words)
	var prod, quo big.Int
	gi := new(big.Int).Set(g) // G^(2^(maskWindow·i))
	cur := new(big.Int)
	slot := t.tab
	for i := 0; i < t.windows; i++ {
		cur.Set(gi)
		for j := 1; j <= maskDigits; j++ {
			copy(slot, cur.Bits()) // shorter than words when cur has leading zero words
			slot = slot[t.words:]
			prod.Mul(cur, gi)
			quo.QuoRem(&prod, ff, cur)
		}
		gi.Set(cur) // gi^(2^maskWindow): the next window's base
	}
	return t, nil
}

// randBelow returns a uniform integer in [0, max).
func randBelow(max *big.Int) (*big.Int, error) {
	r, err := rand.Int(rand.Reader, max)
	if err != nil {
		return nil, fmt.Errorf("paillier: sampling mask: %w", err)
	}
	return r, nil
}

// smallPrimeDivisors returns the primes below smallPrimeBound dividing m.
func smallPrimeDivisors(m *big.Int) []*big.Int {
	composite := make([]bool, smallPrimeBound)
	var divs []*big.Int
	var l, quo, rem big.Int
	for p := 2; p < smallPrimeBound; p++ {
		if composite[p] {
			continue
		}
		for k := p * p; k < smallPrimeBound; k += p {
			composite[k] = true
		}
		l.SetInt64(int64(p))
		if quo.QuoRem(m, &l, &rem); rem.Sign() == 0 {
			divs = append(divs, big.NewInt(int64(p)))
		}
	}
	return divs
}

// generatesUpTo reports whether y^((f-1)/ℓ) ≢ 1 (mod f) for every ℓ in
// small: the index of ⟨y⟩ in Z*_f — equally of ⟨y^f mod f²⟩ in T_f, since
// reduction mod f maps T_f onto Z*_f one to one — has no prime factor in
// small. With small = every prime divisor of f-1, y is a generator.
func generatesUpTo(y, f, fm1 *big.Int, small []*big.Int) bool {
	var e, x big.Int
	for _, l := range small {
		if x.Exp(y, e.Div(fm1, l), f).Cmp(one) == 0 {
			return false
		}
	}
	return true
}

// pow returns G^r mod f² for 0 ≤ r < f-1 as a product of table entries.
func (t *maskTable) pow(r *big.Int) *big.Int {
	acc := new(big.Int).SetInt64(1)
	var entry, prod, quo big.Int
	rb := r.Bits()
	for i := 0; i < t.windows; i++ {
		word, shift := i*maskWindow/bits.UintSize, i*maskWindow%bits.UintSize
		if word >= len(rb) {
			break
		}
		d := rb[word] >> shift
		if shift+maskWindow > bits.UintSize && word+1 < len(rb) {
			d |= rb[word+1] << (bits.UintSize - shift)
		}
		d &= maskDigits
		if d == 0 {
			continue
		}
		at := (i*maskDigits + int(d) - 1) * t.words
		// entry aliases the table and is only ever read.
		entry.SetBits(t.tab[at : at+t.words : at+t.words])
		prod.Mul(acc, &entry)
		quo.QuoRem(&prod, t.ff, acc)
	}
	return acc
}

// random returns a uniform element of ⟨G⟩: the exponent is drawn over the
// full group order, not a short range.
func (t *maskTable) random() (*big.Int, error) {
	r, err := randBelow(t.fm1)
	if err != nil {
		return nil, err
	}
	return t.pow(r), nil
}
