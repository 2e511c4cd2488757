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
	"errors"
	"fmt"
	"math/big"
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

// PublicKey is a Paillier public key.
type PublicKey struct {
	N  *big.Int // modulus n = p*q
	G  *big.Int // generator, fixed to n+1
	N2 *big.Int // n² cache
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
// in place: no exponentiation, no fresh mask and, after the first few
// terms, no allocation. The sum of a single ciphertext is that ciphertext
// unchanged — the result is not re-randomised, so it suits a reply that
// only the key holder reads. Not safe for concurrent use.
type Accumulator struct {
	pk              *PublicKey
	acc, term, prod big.Int
	filled          bool // false until the first Add; acc is meaningless before
}

// NewAccumulator returns an empty accumulator under pk.
func (pk *PublicKey) NewAccumulator() *Accumulator {
	return &Accumulator{pk: pk}
}

// Add folds one serialized ciphertext into the sum.
func (a *Accumulator) Add(raw []byte) error {
	a.term.SetBytes(raw)
	if a.term.Sign() <= 0 || a.term.Cmp(a.pk.N2) >= 0 {
		return ErrInvalidCipher
	}
	if !a.filled {
		a.acc.Set(&a.term)
		a.filled = true
		return nil
	}
	a.prod.Mul(&a.acc, &a.term)
	// term is dead until the next SetBytes, so it takes the quotient and
	// the reduction allocates nothing.
	a.term.QuoRem(&a.prod, a.pk.N2, &a.acc)
	return nil
}

// Bytes serializes the sum; nil when nothing was added.
func (a *Accumulator) Bytes() []byte {
	if !a.filled {
		return nil
	}
	return a.acc.Bytes()
}

// Ciphertext returns the sum, or nil when nothing was added. The result
// aliases the accumulator and is invalidated by the next Add.
func (a *Accumulator) Ciphertext() *Ciphertext {
	if !a.filled {
		return nil
	}
	return &Ciphertext{C: &a.acc, pk: a.pk}
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
	return &PublicKey{
		N:  n,
		G:  new(big.Int).Add(n, one),
		N2: new(big.Int).Mul(n, n),
	}, nil
}

// Bytes serializes the public key (its modulus).
func (pk *PublicKey) Bytes() []byte { return pk.N.Bytes() }
