// Package paillier implements the Paillier public-key cryptosystem
// (Paillier, EUROCRYPT 1999): an additively homomorphic scheme used by the
// DataBlinder Sum and Average aggregate tactics. The original system used
// the Javallier library; this is a from-scratch implementation over
// math/big.
//
// Homomorphic properties (all mod n²):
//
//	Enc(a) * Enc(b)   = Enc(a + b)
//	Enc(a) ^ k        = Enc(a * k)
//
// Signed values are supported by encoding negatives as n - |v| and decoding
// plaintexts above n/2 back to negative numbers.
//
// A PublicKey (a holder of n only, e.g. the cloud) pays the textbook
// r^n mod n² per ciphertext. A PrivateKey knows the factors of n and works
// modulo p² and q² separately: decryption is two half-width exponentiations,
// one when the result must fit an int64 (privatekey.go), and an encryption mask is a product of entries from a
// per-key fixed-base table, with no exponentiation at all (fixedbase.go).
package paillier

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"math/bits"
)

// Common errors.
var (
	ErrKeySize        = errors.New("paillier: key size must be at least 256 bits")
	ErrInvalidFactors = errors.New("paillier: invalid private key factors")
	ErrMessageRange   = errors.New("paillier: message out of range")
	ErrInvalidCipher  = errors.New("paillier: ciphertext out of range")
	ErrMismatchedKeys = errors.New("paillier: ciphertexts from different keys")
)

var one = big.NewInt(1)

// PublicKey is a Paillier public key. Build one with PublicKeyFromN (or
// as part of a PrivateKey): the constructors fix the Montgomery constants
// sums fold with, so a key is read-only afterwards and safe for concurrent
// use.
type PublicKey struct {
	N  *big.Int // modulus n = p*q
	G  *big.Int // generator, fixed to n+1
	N2 *big.Int // n² cache

	// rr is R² mod n² for R = 2^(UintSize·len(N2.Bits())), zero-padded to
	// len(N2.Bits()) words, and k0 is -n²⁻¹ mod 2^UintSize: the constants of
	// montMul modulo n² (Accumulator).
	rr []big.Word
	k0 big.Word
}

// newPublicKey derives the public key of modulus n and its Montgomery
// constants.
func newPublicKey(n *big.Int) PublicKey {
	n2 := new(big.Int).Mul(n, n)
	w := len(n2.Bits())
	r2 := new(big.Int).Lsh(one, uint(2*w*bits.UintSize))
	rr := make([]big.Word, w)
	copy(rr, r2.Mod(r2, n2).Bits())
	return PublicKey{
		N:  n,
		G:  new(big.Int).Add(n, one),
		N2: n2,
		rr: rr,
		k0: negInverse(n2.Bits()[0]),
	}
}

// Ciphertext is a Paillier ciphertext bound to its public key.
type Ciphertext struct {
	C  *big.Int
	pk *PublicKey
}

// maxAbs returns the largest magnitude the signed encoding can represent:
// values v with |v| <= (n-1)/2 round-trip safely.
func (pk *PublicKey) maxAbs() *big.Int {
	m := new(big.Int).Sub(pk.N, one)
	return m.Rsh(m, 1)
}

// encode maps a signed big.Int into Z_n.
func (pk *PublicKey) encode(v *big.Int) (*big.Int, error) {
	if new(big.Int).Abs(v).Cmp(pk.maxAbs()) > 0 {
		return nil, ErrMessageRange
	}
	if v.Sign() >= 0 {
		return new(big.Int).Set(v), nil
	}
	return new(big.Int).Add(pk.N, v), nil
}

// decode maps an element of Z_n back to a signed big.Int.
func (pk *PublicKey) decode(m *big.Int) *big.Int {
	if m.Cmp(pk.maxAbs()) > 0 {
		return new(big.Int).Sub(m, pk.N)
	}
	return new(big.Int).Set(m)
}

// Encrypt encrypts the signed value v on the textbook path: one full-width
// r^n mod n² exponentiation per ciphertext, all a holder of n alone can do.
// Key holders should call PrivateKey.Encrypt instead.
func (pk *PublicKey) Encrypt(v *big.Int) (*Ciphertext, error) {
	m, err := pk.encode(v)
	if err != nil {
		return nil, err
	}
	rn, err := pk.newMask()
	if err != nil {
		return nil, err
	}
	return pk.encryptWithMask(m, rn), nil
}

// encryptWithMask completes the online phase of encryption given the mask
// rn = r^n mod n²: c = g^m * rn mod n². With g = n+1: g^m = 1 + m*n
// (mod n²). rn is not modified.
func (pk *PublicKey) encryptWithMask(m, rn *big.Int) *Ciphertext {
	gm := new(big.Int).Mul(m, pk.N)
	gm.Add(gm, one)
	gm.Mod(gm, pk.N2)
	c := gm.Mul(gm, rn)
	c.Mod(c, pk.N2)
	return &Ciphertext{C: c, pk: pk}
}

// EncryptInt64 encrypts a signed 64-bit value.
func (pk *PublicKey) EncryptInt64(v int64) (*Ciphertext, error) {
	return pk.Encrypt(big.NewInt(v))
}

// newMask samples r uniform in [1, n) with gcd(r, n) = 1 and returns
// r^n mod n².
func (pk *PublicKey) newMask() (*big.Int, error) {
	for {
		r, err := rand.Int(rand.Reader, pk.N)
		if err != nil {
			return nil, fmt.Errorf("paillier: sampling r: %w", err)
		}
		if r.Sign() > 0 && new(big.Int).GCD(nil, nil, r, pk.N).Cmp(one) == 0 {
			return new(big.Int).Exp(r, pk.N, pk.N2), nil
		}
	}
}

// Add homomorphically adds two ciphertexts: Dec(Add(a,b)) = Dec(a)+Dec(b).
func Add(a, b *Ciphertext) (*Ciphertext, error) {
	if a.pk == nil || b.pk == nil || a.pk.N.Cmp(b.pk.N) != 0 {
		return nil, ErrMismatchedKeys
	}
	c := new(big.Int).Mul(a.C, b.C)
	c.Mod(c, a.pk.N2)
	return &Ciphertext{C: c, pk: a.pk}, nil
}

// AddPlain homomorphically adds plaintext v to ciphertext a.
func AddPlain(a *Ciphertext, v *big.Int) (*Ciphertext, error) {
	m, err := a.pk.encode(v)
	if err != nil {
		return nil, err
	}
	gm := new(big.Int).Mul(m, a.pk.N)
	gm.Add(gm, one)
	gm.Mod(gm, a.pk.N2)
	c := gm.Mul(gm, a.C)
	c.Mod(c, a.pk.N2)
	return &Ciphertext{C: c, pk: a.pk}, nil
}

// MulPlain homomorphically multiplies the plaintext inside a by scalar k:
// Dec(MulPlain(a,k)) = Dec(a)*k.
func MulPlain(a *Ciphertext, k *big.Int) (*Ciphertext, error) {
	m, err := a.pk.encode(k)
	if err != nil {
		return nil, err
	}
	c := new(big.Int).Exp(a.C, m, a.pk.N2)
	return &Ciphertext{C: c, pk: a.pk}, nil
}

// Accumulator folds serialized ciphertexts into a running homomorphic sum
// in place: no exponentiation, no fresh mask and, once made, no
// allocation. The sum of a single ciphertext is that ciphertext unchanged —
// the result is not re-randomised, so it suits a reply that only the key
// holder reads. Not safe for concurrent use.
//
// The fold runs in Montgomery form modulo n²: each term after the first is
// multiplied in by montMul, which divides by R instead of dividing by n², so
// after k terms the running value is the product times R^-(k-1). Bytes and
// Ciphertext remove that factor with one more montMul, by R^(k-1) in
// Montgomery form. The result is the fully reduced product mod n², the
// same bytes a Mul+Mod fold gives.
type Accumulator struct {
	pk *PublicKey
	// acc, term and pow are len(N2.Bits()) words each, scratch twice that,
	// all cut from one slab.
	acc, term, pow, scratch []big.Word
	drift                   uint    // montMul folds since acc was last exact: acc = sum·R^-drift
	filled                  bool    // false until the first Add; acc is meaningless before
	sum                     big.Int // the settled acc, as Bytes and Ciphertext hand it out; aliases acc
}

// NewAccumulator returns an empty accumulator under pk.
func (pk *PublicKey) NewAccumulator() *Accumulator {
	w := len(pk.rr) // 0 for a key built by hand, which then refuses every term
	slab := make([]big.Word, 5*w)
	return &Accumulator{
		pk:      pk,
		acc:     slab[:w:w],
		term:    slab[w : 2*w : 2*w],
		pow:     slab[2*w : 3*w : 3*w],
		scratch: slab[3*w:],
	}
}

// Add folds one serialized ciphertext into the sum. A term outside
// [1, n²) is refused and leaves the sum as it was.
func (a *Accumulator) Add(raw []byte) error {
	mod := a.pk.N2.Bits()
	if !setWords(a.term, raw) || !less(a.term, mod) {
		return ErrInvalidCipher
	}
	if !a.filled {
		copy(a.acc, a.term)
		a.filled = true
		return nil
	}
	montMul(a.acc, a.term, a.acc, mod, a.pk.k0, a.scratch)
	a.drift++
	return nil
}

// settle makes acc the exact sum: one montMul by R^drift in Montgomery
// form, R^(drift+1) mod n², which left-to-right binary powering of the
// Montgomery form of R, R² mod n², builds in at most 2·log₂(drift)
// products.
func (a *Accumulator) settle() {
	if a.drift == 0 {
		return
	}
	mod, k0, rr := a.pk.N2.Bits(), a.pk.k0, a.pk.rr
	copy(a.pow, rr)
	for i := bits.Len(a.drift) - 2; i >= 0; i-- {
		montMul(a.pow, a.pow, a.pow, mod, k0, a.scratch)
		if a.drift>>i&1 == 1 {
			montMul(a.pow, a.pow, rr, mod, k0, a.scratch)
		}
	}
	montMul(a.acc, a.acc, a.pow, mod, k0, a.scratch)
	a.drift = 0
}

// Bytes serializes the sum; nil when nothing was added.
func (a *Accumulator) Bytes() []byte {
	if !a.filled {
		return nil
	}
	a.settle()
	return a.sum.SetBits(a.acc).Bytes()
}

// Ciphertext returns the sum, or nil when nothing was added. The result
// aliases the accumulator and is invalidated by the next Add.
func (a *Accumulator) Ciphertext() *Ciphertext {
	if !a.filled {
		return nil
	}
	a.settle()
	return &Ciphertext{C: a.sum.SetBits(a.acc), pk: a.pk}
}

// setWords sets z to the big-endian integer b, zero-padded to len(z) words,
// and reports whether it is non-zero and fits.
func setWords(z []big.Word, b []byte) bool {
	for len(b) > 0 && b[0] == 0 {
		b = b[1:]
	}
	const size = bits.UintSize / 8
	if len(b) == 0 || len(b) > len(z)*size {
		return false
	}
	clear(z)
	i := 0
	for ; len(b) >= size; i++ {
		end := len(b) - size
		if size == 8 {
			z[i] = big.Word(binary.BigEndian.Uint64(b[end:]))
		} else {
			z[i] = big.Word(binary.BigEndian.Uint32(b[end:]))
		}
		b = b[:end]
	}
	for _, c := range b { // the top word's leading bytes
		z[i] = z[i]<<8 | big.Word(c)
	}
	return true
}

// Bytes serializes the ciphertext value.
func (ct *Ciphertext) Bytes() []byte { return ct.C.Bytes() }

// CiphertextFromBytes deserializes a ciphertext under pk.
func CiphertextFromBytes(pk *PublicKey, b []byte) (*Ciphertext, error) {
	c := new(big.Int).SetBytes(b)
	if c.Sign() <= 0 || c.Cmp(pk.N2) >= 0 {
		return nil, ErrInvalidCipher
	}
	return &Ciphertext{C: c, pk: pk}, nil
}

// PublicKeyFromN reconstructs a public key from its modulus bytes. It is
// used to ship the key to the cloud side for aggregate protocols.
func PublicKeyFromN(nBytes []byte) (*PublicKey, error) {
	n := new(big.Int).SetBytes(nBytes)
	if n.BitLen() < 256 {
		return nil, ErrKeySize
	}
	pk := newPublicKey(n)
	return &pk, nil
}

// Bytes serializes the public key (its modulus).
func (pk *PublicKey) Bytes() []byte { return pk.N.Bytes() }
