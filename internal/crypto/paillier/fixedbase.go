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
// The entries are kept in Montgomery form, E·R mod f² with
// R = 2^(UintSize·k) for a k-word f², so a product reduces by word-by-word
// Montgomery multiplication (montMul) instead of a division by f²; one
// product by 1 at the end of pow leaves the form.
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
	fm1, ff *big.Int   // f-1 (the order of T_f), f²
	g       *big.Int   // the base: a generator of T_f up to the generator check
	windows int        // digits in an exponent below f-1
	mod     []big.Word // ff.Bits(): the Montgomery modulus, len(mod) words per entry
	k0      big.Word   // -f⁻² mod 2^UintSize
	// tab is one flat, pointer-free slab: entry (i, j), 1 ≤ j < 2^maskWindow,
	// is G^(j·2^(maskWindow·i))·R mod f², zero-padded to len(mod) words, at
	// offset (i·maskDigits + j-1)·len(mod). A slab keeps ~32 000 entries out of
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
	n := len(ff.Bits())
	t := &maskTable{
		fm1: fm1, ff: ff, g: g,
		windows: (fm1.BitLen() + maskWindow - 1) / maskWindow,
		mod:     ff.Bits(),
		k0:      negInverse(ff.Bits()[0]),
	}
	t.tab = make([]big.Word, t.windows*maskDigits*n)
	scratch := make([]big.Word, 2*n)
	gR := new(big.Int).Lsh(g, uint(n*bits.UintSize))
	gi := make([]big.Word, n) // G^(2^(maskWindow·i)) in Montgomery form
	copy(gi, gR.Mod(gR, ff).Bits())
	slot := t.tab
	for i := 0; i < t.windows; i++ {
		copy(slot, gi) // entry (i, 1)
		for j := 2; j <= maskDigits; j++ {
			montMul(slot[n:2*n], slot[:n], gi, t.mod, t.k0, scratch)
			slot = slot[n:]
		}
		montMul(gi, slot[:n], gi, t.mod, t.k0, scratch) // gi^(2^maskWindow): the next window's base
		slot = slot[n:]
	}
	return t, nil
}

// negInverse returns -m0⁻¹ mod 2^UintSize for an odd m0 by Newton's
// iteration: m0 is its own inverse mod 8, and each step doubles the number
// of correct low bits (3·2⁵ ≥ 64).
func negInverse(m0 big.Word) big.Word {
	inv := m0
	for i := 0; i < 5; i++ {
		inv *= 2 - m0*inv
	}
	return -inv
}

// montMul sets z = x·y·R⁻¹ mod m for x, y < m of len(m) words, with
// R = 2^(UintSize·len(m)) and k0 = -m⁻¹ mod 2^UintSize. It is the
// word-by-word Montgomery product of Gueron, "Efficient Software
// Implementations of Modular Exponentiation" (2011), Algorithm 4, in the
// form of the generic branch of crypto/internal/fips140/bigmod's
// montgomeryMul: per word of y, one addMulVVW row adds x·y[i] into the
// window t[i:], a second adds the multiple of m that clears t[i], and the
// window moves up a word. What is left in t[n:], plus the carry c, is below
// 2m, so one subtraction of m reduces it. t is 2·len(m) words of scratch;
// z may alias x or y.
func montMul(z, x, y, m []big.Word, k0 big.Word, t []big.Word) {
	n := len(m)
	t = t[:2*n]
	clear(t)
	var c uint
	for i := 0; i < n; i++ {
		c1 := addMulVVW(t[i:n+i], x, y[i])
		c2 := addMulVVW(t[i:n+i], m, t[i]*k0)
		var s uint
		s, c = bits.Add(uint(c1), uint(c2), c)
		t[n+i] = big.Word(s)
	}
	z = z[:n]
	copy(z, t[n:])
	if c == 0 && less(z, m) {
		return
	}
	var b uint // when c is 1 the final borrow cancels it
	for i := range z {
		var d uint
		d, b = bits.Sub(uint(z[i]), uint(m[i]), b)
		z[i] = big.Word(d)
	}
}

// less reports whether x < y, both of the same length.
func less(x, y []big.Word) bool {
	for i := len(x) - 1; i >= 0; i-- {
		if x[i] != y[i] {
			return x[i] < y[i]
		}
	}
	return false
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
	mb := m.Bits()
	for p := 2; p < smallPrimeBound; p++ {
		if composite[p] {
			continue
		}
		for k := p * p; k < smallPrimeBound; k += p {
			composite[k] = true
		}
		var rem uint // m mod p, a word at a time from the top
		for i := len(mb) - 1; i >= 0; i-- {
			rem = bits.Rem(rem, uint(mb[i]), uint(p))
		}
		if rem == 0 {
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
	n := len(t.mod)
	buf := make([]big.Word, 4*n)
	acc, unit, scratch := buf[:n:n], buf[n:2*n], buf[2*n:]
	empty := true // acc holds no entry yet: r has seen only zero digits
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
		at := (i*maskDigits + int(d) - 1) * n
		if empty {
			copy(acc, t.tab[at:at+n])
			empty = false
			continue
		}
		// The entry is the row operand, which addMulVVW streams from the
		// table; acc, hot in cache, supplies the per-word multipliers.
		montMul(acc, t.tab[at:at+n], acc, t.mod, t.k0, scratch)
	}
	if empty {
		return big.NewInt(1) // r = 0
	}
	unit[0] = 1
	montMul(acc, acc, unit, t.mod, t.k0, scratch) // E·R·1·R⁻¹ = E
	return new(big.Int).SetBits(acc)
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
