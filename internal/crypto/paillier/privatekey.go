package paillier

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"sync"
)

// Knowing p and q, Z*_{n²} splits into Z*_{p²} × Z*_{q²} and every
// full-width exponentiation becomes two with half the exponent bits over
// half the modulus bits, recombined by Garner's formula (Paillier 1999,
// §7; the homomorphic-encryption survey in PAPERS.md).
//
// Decryption: m_p = L_p(c^(p-1) mod p²)·h_p mod p with L_p(x) = (x-1)/p,
// likewise m_q, and m = CRT(m_p, m_q). An int64 result needs only one of
// the halves (DecryptInt64).
//
// Masks: the n-th residues mod p² are the subgroup T_p of order p-1 (x ↦ x^q
// permutes Z*_{p²} because gcd(n, φ(n)) = 1), and y ↦ y^p mod p² maps Z*_p
// onto it one to one, since y^p depends only on y mod p and y^p ≡ y
// (mod p). So CRT(t_p, t_q) for uniform t_p ∈ T_p, t_q ∈ T_q is a uniformly
// random n-th residue mod n² — the distribution of r^n mod n² for uniform
// r ∈ Z*_n. fixedbase.go draws t_p and t_q as table products.

// PrivateKey is a Paillier private key: the factors of n plus the
// constants derived from them. Build one with NewPrivateKey or GenerateKey;
// it is read-only afterwards and safe for concurrent use.
type PrivateKey struct {
	PublicKey
	P, Q *big.Int // prime factors of n; the only secret that is stored

	pp, qq   *big.Int // p², q²
	pm1, qm1 *big.Int // p-1, q-1
	hp, hq   *big.Int // L_p(g^(p-1) mod p²)^-1 mod p, likewise mod q
	pInvQ    *big.Int // p^-1 mod q: Garner coefficient for plaintexts mod n
	ppInvQQ  *big.Int // (p²)^-1 mod q²: Garner coefficient for masks mod n²

	// maskP and maskQ are the fixed-base tables masks are drawn from, built
	// by the first mask: a key that only decrypts never pays for them.
	maskOnce     sync.Once
	maskP, maskQ *maskTable
	maskErr      error

	// pool, when non-nil, holds precomputed masks so Encrypt skips even the
	// table products. See EnableRandPool.
	pool *randPool
}

// NewPrivateKey derives the full private key from its prime factors. It
// rejects p == q, a composite factor, an n below 256 bits, and a pair with
// gcd(n, (p-1)(q-1)) ≠ 1, for which n-th residuosity — and so decryption —
// breaks down.
func NewPrivateKey(p, q *big.Int) (*PrivateKey, error) {
	if p.Sign() <= 0 || q.Sign() <= 0 || p.Cmp(q) == 0 {
		return nil, fmt.Errorf("%w: factors must be distinct and positive", ErrInvalidFactors)
	}
	if !p.ProbablyPrime(20) || !q.ProbablyPrime(20) {
		return nil, fmt.Errorf("%w: factor is not prime", ErrInvalidFactors)
	}
	n := new(big.Int).Mul(p, q)
	if n.BitLen() < 256 {
		return nil, ErrKeySize
	}
	pm1 := new(big.Int).Sub(p, one)
	qm1 := new(big.Int).Sub(q, one)
	phi := new(big.Int).Mul(pm1, qm1)
	if new(big.Int).GCD(nil, nil, n, phi).Cmp(one) != 0 {
		return nil, fmt.Errorf("%w: gcd(n, (p-1)(q-1)) != 1", ErrInvalidFactors)
	}
	sk := &PrivateKey{
		PublicKey: newPublicKey(n),
		P:         new(big.Int).Set(p),
		Q:         new(big.Int).Set(q),
		pp:        new(big.Int).Mul(p, p),
		qq:        new(big.Int).Mul(q, q),
		pm1:       pm1,
		qm1:       qm1,
	}
	sk.hp = new(big.Int).ModInverse(lHalf(sk.G, sk.P, sk.pp, pm1), sk.P)
	sk.hq = new(big.Int).ModInverse(lHalf(sk.G, sk.Q, sk.qq, qm1), sk.Q)
	sk.pInvQ = new(big.Int).ModInverse(sk.P, sk.Q)
	sk.ppInvQQ = new(big.Int).ModInverse(sk.pp, sk.qq)
	if sk.hp == nil || sk.hq == nil || sk.pInvQ == nil || sk.ppInvQQ == nil {
		// Unreachable once the checks above pass; kept so a bug here cannot
		// surface as a nil dereference in Decrypt.
		return nil, fmt.Errorf("%w: derived constant has no inverse", ErrInvalidFactors)
	}
	return sk, nil
}

// GenerateKey creates a Paillier key pair with an n of the given bit size.
// Bit sizes of 1024+ are cryptographically meaningful; tests may use
// smaller sizes (>= 256) for speed.
func GenerateKey(bits int) (*PrivateKey, error) {
	if bits < 256 {
		return nil, ErrKeySize
	}
	for {
		p, err := rand.Prime(rand.Reader, bits/2)
		if err != nil {
			return nil, fmt.Errorf("paillier: generating p: %w", err)
		}
		q, err := rand.Prime(rand.Reader, bits/2)
		if err != nil {
			return nil, fmt.Errorf("paillier: generating q: %w", err)
		}
		if new(big.Int).Mul(p, q).BitLen() != bits {
			continue
		}
		if sk, err := NewPrivateKey(p, q); err == nil {
			return sk, nil
		}
		// p == q or a degenerate pair: draw again.
	}
}

// lHalf returns L_f(x^(f-1) mod f²) for the factor f, with L_f(x) = (x-1)/f.
func lHalf(x, f, ff, fm1 *big.Int) *big.Int {
	l := new(big.Int).Mod(x, ff)
	l.Exp(l, fm1, ff)
	l.Sub(l, one)
	return l.Div(l, f)
}

// plainHalf returns the plaintext modulo the factor f:
// m_f = L_f(c^(f-1) mod f²)·h_f mod f.
func plainHalf(c, f, ff, fm1, hf *big.Int) *big.Int {
	m := lHalf(c, f, ff, fm1)
	m.Mul(m, hf)
	return m.Mod(m, f)
}

// garner returns the x in [0, a·b) with x ≡ xa (mod a) and x ≡ xb (mod b),
// given aInvB = a^-1 mod b.
func garner(xa, xb, a, b, aInvB *big.Int) *big.Int {
	x := new(big.Int).Sub(xb, xa)
	x.Mul(x, aInvB)
	x.Mod(x, b)
	x.Mul(x, a)
	return x.Add(x, xa)
}

// Decrypt recovers the signed plaintext from ct.
func (sk *PrivateKey) Decrypt(ct *Ciphertext) (*big.Int, error) {
	if ct.C.Sign() <= 0 || ct.C.Cmp(sk.N2) >= 0 {
		return nil, ErrInvalidCipher
	}
	mp := plainHalf(ct.C, sk.P, sk.pp, sk.pm1, sk.hp)
	mq := plainHalf(ct.C, sk.Q, sk.qq, sk.qm1, sk.hq)
	return sk.decode(garner(mp, mq, sk.P, sk.Q, sk.pInvQ)), nil
}

// DecryptInt64 decrypts a plaintext expected to fit an int64, erroring when
// it does not. It runs one CRT half, over the larger factor f: m mod f folded
// into (-f/2, f/2] is the plaintext v itself whenever |v| < f/2, and f/2 is
// at least 2^126 (n has 256 bits or more). Every sum of fewer than 2^63
// int64 terms — the most any aggregate can add — is inside that bound, so
// an int64 result is exact and a sum that leaves int64 still errors. A
// ciphertext of a larger plaintext decrypts to v mod f; only a party that
// holds n can make one, and it can encrypt any int64 it likes anyway.
func (sk *PrivateKey) DecryptInt64(ct *Ciphertext) (int64, error) {
	if ct.C.Sign() <= 0 || ct.C.Cmp(sk.N2) >= 0 {
		return 0, ErrInvalidCipher
	}
	f, ff, fm1, hf := sk.P, sk.pp, sk.pm1, sk.hp
	if sk.Q.Cmp(sk.P) > 0 {
		f, ff, fm1, hf = sk.Q, sk.qq, sk.qm1, sk.hq
	}
	m := plainHalf(ct.C, f, ff, fm1, hf)
	if m.Cmp(new(big.Int).Rsh(f, 1)) > 0 {
		m.Sub(m, f)
	}
	if !m.IsInt64() {
		return 0, fmt.Errorf("paillier: plaintext %s exceeds int64", m)
	}
	return m.Int64(), nil
}

// Encrypt encrypts the signed value v with a mask built from the factors of
// n (or drawn from the pool, see EnableRandPool). It shadows the textbook
// PublicKey.Encrypt; the ciphertexts are identically distributed.
func (sk *PrivateKey) Encrypt(v *big.Int) (*Ciphertext, error) {
	m, err := sk.encode(v)
	if err != nil {
		return nil, err
	}
	rn, err := sk.mask()
	if err != nil {
		return nil, err
	}
	return sk.encryptWithMask(m, rn), nil
}

// EncryptInt64 encrypts a signed 64-bit value on the private-key path.
func (sk *PrivateKey) EncryptInt64(v int64) (*Ciphertext, error) {
	return sk.Encrypt(big.NewInt(v))
}

// newMask returns a uniformly random n-th residue mod n²: one table product
// per factor, recombined by Garner. The first call builds the tables.
func (sk *PrivateKey) newMask() (*big.Int, error) {
	sk.maskOnce.Do(func() {
		if sk.maskP, sk.maskErr = newMaskTable(sk.P, sk.pm1, sk.pp); sk.maskErr == nil {
			sk.maskQ, sk.maskErr = newMaskTable(sk.Q, sk.qm1, sk.qq)
		}
	})
	if sk.maskErr != nil {
		return nil, sk.maskErr
	}
	rp, err := sk.maskP.random()
	if err != nil {
		return nil, err
	}
	rq, err := sk.maskQ.random()
	if err != nil {
		return nil, err
	}
	return garner(rp, rq, sk.pp, sk.qq, sk.ppInvQQ), nil
}
