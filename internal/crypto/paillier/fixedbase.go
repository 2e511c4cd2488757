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
// for every digit position i and digit value j, and the power is the
// product of one table entry per digit — no squarings.
//
// An entry is kept as two halves. An element E of T_f is e·(1 + f·q) mod
// f², where e = E mod f has the h words of f and q = (e^(f-1) - 1)/f mod f
// is e's Fermat quotient: E^(f-1) ≡ 1, e^(f-1) ≡ 1 + f·q(e) and
// (1 + f·q)^(f-1) ≡ 1 - f·q (mod f²) leave q = q(e). Since
// (1 + f·a)(1 + f·b) ≡ 1 + f·(a + b) (mod f²), a product of entries is
// (∏e mod f²)·(1 + f·Σq): the e's multiply by Montgomery products with an
// h-word multiplier — h rows over f² where a full-width entry took twice as
// many — the q's only add, and one product by 1 + f·Σq ends the power. The
// result is G^r mod f², the same integer a product of full-width entries
// gives.
//
// The table is key-equivalent — its e-part is y's fixed-base table in Z*_f,
// and gcd(e₁² - e₂, n) = f for its first two entries — so it lives only in
// process memory and is rebuilt from a fresh base at every start. Which
// entries a mask reads depends on the secret r, as the window lookups of
// math/big's Exp already did; DESIGN.md ("Paillier key at rest and fast
// paths") has the threat-model note and the one residual assumption behind
// the generator check.

// maskWindow is the digit width in bits, picked by measurement
// (EXPERIMENTS.md "Fixed-base Paillier masks": 6, 7 and 8 compared). At 8 a
// 512-bit factor costs 64 half-width products per half mask and 64·256
// entries of 2·64 bytes — 2 MiB per factor, 4 MiB per 1024-bit key, and four
// times that per doubling of the key size.
const maskWindow = 8

// maskDigits is the number of table entries per window: one per digit
// value, 0 included.
const maskDigits = 1 << maskWindow

// smallPrimeBound bounds the primes the generator check rules out as
// divisors of the base's index in T_f.
const smallPrimeBound = 1 << 16

// maskTable is the fixed-base table for one prime factor f of n. It is
// read-only once built.
type maskTable struct {
	fm1, ff *big.Int   // f-1 (the order of T_f), f²
	g       *big.Int   // the base: a generator of T_f up to the generator check
	windows int        // digits in an exponent below f-1
	f       []big.Word // f.Bits(): h words, the width of e and q
	mod     []big.Word // ff.Bits(): the Montgomery modulus of the product
	k0      big.Word   // -f⁻² mod 2^UintSize
	// start is R_h^windows·R mod f², with R_h = 2^(UintSize·h) and
	// R = 2^(UintSize·(2h+1)): a product of one entry per window that
	// starts from it ends at ∏e·R, the Montgomery form the final product
	// by the 2h+1 words of 1 + f·Σq leaves.
	start []big.Word
	// e and q are two flat, pointer-free slabs of h words per entry: entry
	// (i, j) is at (i·maskDigits + j)·h and holds e = G^(j·2^(maskWindow·i))
	// mod f and its Fermat quotient q; digit 0 reads (1, 0). Slabs keep
	// ~32 000 entries out of the garbage collector's sight.
	e, q []big.Word
}

// newMaskTable draws a base for the factor f and builds its table.
func newMaskTable(f, fm1, ff *big.Int) (*maskTable, error) {
	small := smallPrimeDivisors(fm1)
	var y *big.Int
	for y == nil {
		r, err := randBelow(fm1) // [0, f-2]
		if err != nil {
			return nil, err
		}
		r.Add(r, one) // uniform in Z*_f = [1, f-1]
		if generatesUpTo(r, f, fm1, small) {
			y = r
		}
	}
	h, n := len(f.Bits()), len(ff.Bits())
	t := &maskTable{
		fm1: fm1, ff: ff, g: new(big.Int).Exp(y, f, ff),
		windows: (fm1.BitLen() + maskWindow - 1) / maskWindow,
		f:       f.Bits(),
		mod:     ff.Bits(),
		k0:      negInverse(ff.Bits()[0]),
	}
	drift := new(big.Int).Lsh(one, uint((h*t.windows+2*h+1)*bits.UintSize))
	t.start = words(drift.Mod(drift, ff), n)
	t.e = make([]big.Word, t.windows*maskDigits*h)
	t.q = make([]big.Word, t.windows*maskDigits*h)
	t.build(y)
	return t, nil
}

// build fills the slabs with f-sized arithmetic alone. Within a window the
// entries are a chain over the window's base b, and the chain's
// 2^maskWindow-th link is the next window's base, entry (i+1, 1). A link is
// the Montgomery product e_j = (e_(j-1)·B + Q·f)/R mod f, with R =
// 2^(UintSize·h), B = b·R mod f and Q the multiple of f the product added.
//
// The Fermat quotient is a logarithm on the integers prime to f,
// q(x·z) ≡ q(x) + q(z), and (a + f·k)^(f-1) ≡ a^(f-1) - f·k·a^(f-2) gives
// q(a + f·k) ≡ q(a) - k·a⁻¹ (mod f). So a link carries the quotient along:
//
//	q(e_j) = q(e_(j-1)) + d - k·e_j⁻¹·R⁻¹ mod f,  d = q(B) - q(R),
//
// where k is Q, or Q - R when the product's final subtraction ran; e_j⁻¹
// runs along a chain of b⁻¹'s (one ModInverse per table), and
// B = b·R - f·⌊b·R/f⌋ makes d = q(b) + ⌊b·R/f⌋·(b·R)⁻¹, one d per window.
// The first base's q comes from G = y·(1 + f·q(y)) mod f², whose high half
// is y·q(y) mod f. Splitting the entries of an f²-wide chain instead gives
// the same slabs for one f²-wide product more per entry: twice the build
// time (EXPERIMENTS.md "Half-width mask products").
func (t *maskTable) build(y *big.Int) {
	fw, h := t.f, len(t.f)
	f := new(big.Int).SetBits(fw)
	kf := negInverse(fw[0])
	r := new(big.Int).Lsh(one, uint(h*bits.UintSize))
	rInv := new(big.Int).ModInverse(r, f)
	bInv := new(big.Int).ModInverse(y, f)
	qb := new(big.Int).Div(t.g, f)
	qb.Mul(qb, bInv).Mod(qb, f)
	putWords(t.e[h:2*h], y)
	putWords(t.q[h:2*h], qb)

	buf := make([]big.Word, 8*h)
	bM, bInvM, d, inv := buf[:h], buf[h:2*h], buf[2*h:3*h], buf[3*h:4*h]
	sa, sb := buf[4*h:6*h], buf[6*h:] // montMul scratch; sa keeps a link's Q
	var b, s, x big.Int
	for i := 0; i < t.windows; i++ {
		row := i * maskDigits * h
		t.e[row] = 1 // (1, 0): digit 0
		fromWords(&b, t.e[row+h:row+2*h])
		fromWords(qb, t.q[row+h:row+2*h])
		s.DivMod(x.Lsh(&b, uint(h*bits.UintSize)), f, &x) // s = ⌊b·R/f⌋, x = B
		putWords(bM, &x)
		putWords(bInvM, x.Mul(bInv, r).Mod(&x, f))
		putWords(d, s.Mul(&s, bInv).Mul(&s, rInv).Add(&s, qb).Mod(&s, f))
		putWords(inv, bInv)
		prev := row + h
		for j := 2; j <= maskDigits; j++ {
			at := row + j*h
			if j == maskDigits {
				if i+1 == t.windows {
					break
				}
				at += h // entry (i+1, 1)
			}
			e, q := t.e[at:at+h], t.q[at:at+h]
			subtracted := montMul(e, t.e[prev:prev+h], bM, fw, kf, sa)
			montMul(inv, inv, bInvM, fw, kf, sb)
			montMul(q, inv, sa[:h], fw, kf, sb) // Q·e_j⁻¹·R⁻¹
			subMod(q, d, q, fw)
			addMod(q, t.q[prev:prev+h], fw)
			if subtracted { // k = Q - R: add back R·e_j⁻¹·R⁻¹
				addMod(q, inv, fw)
			}
			prev = at
		}
		fromWords(bInv, inv)
	}
}

// addVV sets z = x + y mod 2^(UintSize·len(z)) and returns the carry; z
// may alias x or y.
func addVV(z, x, y []big.Word) (c uint) {
	for i := range z {
		var s uint
		s, c = bits.Add(uint(x[i]), uint(y[i]), c)
		z[i] = big.Word(s)
	}
	return c
}

// subVV sets z = x - y mod 2^(UintSize·len(z)) and returns the borrow; z
// may alias x or y.
func subVV(z, x, y []big.Word) (b uint) {
	for i := range z {
		var d uint
		d, b = bits.Sub(uint(x[i]), uint(y[i]), b)
		z[i] = big.Word(d)
	}
	return b
}

// addMod sets z = z + x mod m for z, x < m, all of len(m) words.
func addMod(z, x, m []big.Word) {
	if addVV(z, z, x) != 0 || !less(z, m) {
		subVV(z, z, m) // when the add carried the final borrow cancels it
	}
}

// subMod sets z = x - y mod m for x, y < m, all of len(m) words; z may
// alias x or y.
func subMod(z, x, y, m []big.Word) {
	if subVV(z, x, y) != 0 {
		addVV(z, z, m)
	}
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

// montMul sets z = x·y·R⁻¹ mod m for x < m of len(m) words and any y, with
// R = 2^(UintSize·len(y)) and k0 = -m⁻¹ mod 2^UintSize. It is the
// word-by-word Montgomery product of Gueron, "Efficient Software
// Implementations of Modular Exponentiation" (2011), Algorithm 4, in the
// form of the generic branch of crypto/internal/fips140/bigmod's
// montgomeryMul: per word of y, one addMulVVW row adds x·y[i] into the
// window t[i:], a second adds the multiple of m that clears t[i], and the
// window moves up a word. What is left in t[len(y):], plus the carry c, is
// below 2m — x·y and the multiple of m are each below m·R — so one
// subtraction of m reduces it. A y shorter than m is the half-width
// product: len(y) rows instead of len(m). t is len(m)+len(y) words of
// scratch; z may alias x, or y when y is as long as m. On return t[:len(y)]
// holds that multiple of m, Q = -x·y·m⁻¹ mod R, and the result reports
// whether the final subtraction ran: then z·R = x·y + (Q - R)·m, else
// z·R = x·y + Q·m.
func montMul(z, x, y, m []big.Word, k0 big.Word, t []big.Word) (subtracted bool) {
	n, l := len(m), len(y)
	t = t[:n+l]
	clear(t[:n]) // row i sets t[n+i] before anything reads it
	var c uint
	for i, yi := range y {
		w := t[i : n+i]
		c1 := addMulVVW(w, x, yi)
		q := w[0] * k0
		c2 := addMulVVW(w, m, q)
		w[0] = q // the row cleared t[i]; it keeps the row's multiple of m
		var s uint
		s, c = bits.Add(uint(c1), uint(c2), c)
		t[n+i] = big.Word(s)
	}
	z = z[:n]
	copy(z, t[l:])
	if c == 0 && less(z, m) {
		return false
	}
	subVV(z, z, m) // when c is 1 the final borrow cancels it
	return true
}

// words returns x zero-padded to n words.
func words(x *big.Int, n int) []big.Word {
	w := make([]big.Word, n)
	putWords(w, x)
	return w
}

// putWords sets w to x, zero-padded; x must fit.
func putWords(w []big.Word, x *big.Int) {
	clear(w)
	copy(w, x.Bits())
}

// fromWords sets z to the value of w, copied, and returns z.
func fromWords(z *big.Int, w []big.Word) *big.Int {
	return z.SetBits(append(z.Bits()[:0], w...))
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

// pow returns G^r mod f² for 0 ≤ r < f-1 as a product of one table entry
// per window. Every window multiplies — digit 0 reads (1, 0) — so the
// product count, and with it the drift that start cancels, does not depend
// on r.
func (t *maskTable) pow(r *big.Int) *big.Int {
	h, n := len(t.f), len(t.mod)
	buf := make([]big.Word, 2*n+5*h+3)
	acc, sum := buf[:n:n], buf[n:n+h+1]
	u, scratch := buf[n+h+1:n+3*h+2], buf[n+3*h+2:] // 1 + f·Σq; montMul's n+2h+1 words
	rb := r.Bits()
	// Read one word of every entry first: the table is far larger than L2,
	// and these loads do not wait for each other as the products would.
	var touch big.Word
	for i := 0; i < t.windows; i++ {
		at := t.entry(rb, i)
		touch |= t.e[at] | t.q[at]
	}
	scratch[0] = touch
	copy(acc, t.start)
	for i := 0; i < t.windows; i++ {
		at := t.entry(rb, i)
		// acc, hot in cache, is the row operand; the entry's h words are the
		// multipliers.
		montMul(acc, acc, t.e[at:at+h], t.mod, t.k0, scratch)
		// Σq is kept unreduced in h+1 words: f·Σq mod f² only depends on
		// Σq mod f.
		sum[h] += big.Word(addVV(sum[:h], sum[:h], t.q[at:at+h]))
	}
	for i := range sum { // u = f·Σq + 1, 2h+1 words
		u[h+i] = addMulVVW(u[i:h+i], t.f, sum[i])
	}
	for i := range u {
		if u[i]++; u[i] != 0 {
			break
		}
	}
	montMul(acc, acc, u, t.mod, t.k0, scratch) // ∏e·R·(1 + f·Σq)·R⁻¹
	return new(big.Int).SetBits(acc)
}

// entry returns the slab offset of window i's entry for the exponent whose
// words are rb.
func (t *maskTable) entry(rb []big.Word, i int) int {
	word, shift := i*maskWindow/bits.UintSize, i*maskWindow%bits.UintSize
	var d big.Word
	if word < len(rb) {
		d = rb[word] >> shift
		if shift+maskWindow > bits.UintSize && word+1 < len(rb) {
			d |= rb[word+1] << (bits.UintSize - shift)
		}
	}
	return (i*maskDigits + int(d&(maskDigits-1))) * len(t.f)
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
