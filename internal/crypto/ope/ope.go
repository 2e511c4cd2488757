// Package ope implements a stateless order-preserving encryption scheme in
// the style of Boldyreva et al. (the OPE tactic, protection class 5 —
// order leakage).
//
// The scheme maps the 64-bit unsigned plaintext domain into a 96-bit
// ciphertext range by recursive binary range splitting: at each recursion
// node the range split point is drawn pseudo-randomly (PRF-keyed, hence
// deterministic per key) from the window that leaves both halves enough
// room. Equal plaintexts always map to equal ciphertexts and the mapping
// is strictly monotone.
//
// Substitution note (recorded in DESIGN.md): the reference construction
// samples the split with a hypergeometric distribution; this implementation
// samples uniformly. That changes only the distribution of ciphertext gaps
// — determinism, strict monotonicity, and the order-leakage profile are
// identical, which is what the middleware's behaviour depends on.
package ope

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/bits"

	"datablinder/internal/crypto/primitives"
)

// CiphertextSize is the fixed serialized ciphertext width in bytes
// (96 bits, big-endian). Lexicographic byte comparison of ciphertexts
// matches numeric order.
const CiphertextSize = 12

// ErrCiphertextSize is returned when decrypt/compare inputs have the wrong width.
var ErrCiphertextSize = errors.New("ope: ciphertext must be 12 bytes")

// Cipher is a stateless OPE cipher. It is safe for concurrent use.
type Cipher struct {
	key primitives.Key
}

// New constructs an OPE cipher from key.
func New(key primitives.Key) *Cipher {
	return &Cipher{key: key}
}

// rangeMax is the largest ciphertext, 2^96 - 1.
var rangeMax = u128{hi: 1<<32 - 1, lo: math.MaxUint64}

// EncryptUint64 maps m to its order-preserving ciphertext.
func (c *Cipher) EncryptUint64(m uint64) []byte {
	w := c.newWalk()
	defer w.prf.Release()
	out := make([]byte, CiphertextSize)
	w.encrypt(m).put(out)
	return out
}

// EncryptInt64 maps a signed value through the order-preserving
// offset-by-2^63 embedding, so signed comparisons are preserved.
func (c *Cipher) EncryptInt64(v int64) []byte {
	return c.EncryptUint64(uint64(v) ^ (1 << 63))
}

// DecryptUint64 recovers the plaintext by binary search over the same
// deterministic mapping used for encryption.
func (c *Cipher) DecryptUint64(ct []byte) (uint64, error) {
	if len(ct) != CiphertextSize {
		return 0, ErrCiphertextSize
	}
	target := u128{hi: uint64(binary.BigEndian.Uint32(ct)), lo: binary.BigEndian.Uint64(ct[4:])}
	w := c.newWalk()
	defer w.prf.Release()
	lo, hi := uint64(0), ^uint64(0)
	for lo < hi {
		mid := lo + (hi-lo)/2
		switch mc := w.encrypt(mid); {
		case mc == target:
			return mid, nil
		case mc.less(target):
			lo = mid + 1
		default:
			if mid == 0 {
				return 0, errors.New("ope: ciphertext does not decrypt")
			}
			hi = mid - 1
		}
	}
	if w.encrypt(lo) != target {
		return 0, errors.New("ope: ciphertext does not decrypt")
	}
	return lo, nil
}

// DecryptInt64 reverses EncryptInt64.
func (c *Cipher) DecryptInt64(ct []byte) (int64, error) {
	u, err := c.DecryptUint64(ct)
	if err != nil {
		return 0, err
	}
	return int64(u ^ (1 << 63)), nil
}

// Compare orders two ciphertexts: -1, 0, or +1. It requires no key and is
// the operation the cloud side runs for range queries.
func Compare(a, b []byte) int { return bytes.Compare(a, b) }

// seedField is the width of one recursion-node coordinate in the PRF input.
const seedField = CiphertextSize + 1

// walk is the state of one or more encryptions: the PRF, keyed once, and
// one buffer for the PRF input (four big-endian node coordinates and a
// big-endian counter) and one for its output.
type walk struct {
	prf primitives.PRFState
	in  [4*seedField + 8]byte
	out [primitives.PRFSize]byte
}

func (c *Cipher) newWalk() *walk {
	return &walk{prf: primitives.PooledPRFState(c.key)}
}

// encrypt walks the deterministic recursive range split.
func (w *walk) encrypt(m uint64) u128 {
	dlo, dhi := uint64(0), uint64(math.MaxUint64)
	rlo, rhi := u128{}, rangeMax
	for dlo < dhi {
		dm := dlo + (dhi-dlo)/2
		// Window for the split point rm: the left half keeps at least the
		// left domain size, the right half at least the right one.
		rmMin := rlo.add(u128{lo: dm - dlo})
		rmMax := rhi.sub(u128{lo: dhi - dm})
		rm := w.uniform(rmMin, rmMax, dlo, dhi, rlo, rhi)
		if m <= dm {
			dhi, rhi = dm, rm
		} else {
			dlo, rlo = dm+1, rm.add(u128{lo: 1})
		}
	}
	// Single plaintext left: pick its ciphertext uniformly in the leaf range.
	return w.uniform(rlo, rhi, dlo, dhi, rlo, rhi)
}

// uniform deterministically samples a value in [lo, hi] keyed by the full
// recursion node coordinates, via counter-mode PRF rejection sampling.
func (w *walk) uniform(lo, hi u128, dlo, dhi uint64, rlo, rhi u128) u128 {
	if hi.less(lo) {
		// The window invariant guarantees lo <= hi; violation is a bug.
		panic("ope: empty sampling window")
	}
	size := hi.sub(lo).add(u128{lo: 1})
	u128{lo: dlo}.putSeed(w.in[0*seedField:])
	u128{lo: dhi}.putSeed(w.in[1*seedField:])
	rlo.putSeed(w.in[2*seedField:])
	rhi.putSeed(w.in[3*seedField:])

	// Rejection sampling: draw 128-bit candidates until one falls below the
	// largest multiple of size not above 2^128, 2^128 - (2^128 mod size), which
	// eliminates modulo bias; the loop is deterministic because the counter
	// is part of the PRF input.
	rem := u128{}.sub(size).mod(size) // 2^128 mod size
	limit := u128{}.sub(rem)          // 2^128 - rem; zero stands for 2^128
	for ctr := uint64(0); ; ctr++ {
		binary.BigEndian.PutUint64(w.in[4*seedField:], ctr)
		draw := w.prf.Append(w.out[:0], w.in[:])
		v := u128{hi: binary.BigEndian.Uint64(draw), lo: binary.BigEndian.Uint64(draw[8:])}
		if rem != (u128{}) && !v.less(limit) {
			continue
		}
		return v.mod(size).add(lo)
	}
}

// u128 is an unsigned 128-bit integer. The 96-bit ciphertext range and the
// 128-bit PRF draws of the sampler fit in it.
type u128 struct{ hi, lo uint64 }

func (a u128) add(b u128) u128 {
	lo, carry := bits.Add64(a.lo, b.lo, 0)
	hi, _ := bits.Add64(a.hi, b.hi, carry)
	return u128{hi, lo}
}

// sub returns a - b modulo 2^128.
func (a u128) sub(b u128) u128 {
	lo, borrow := bits.Sub64(a.lo, b.lo, 0)
	hi, _ := bits.Sub64(a.hi, b.hi, borrow)
	return u128{hi, lo}
}

func (a u128) less(b u128) bool {
	return a.hi < b.hi || a.hi == b.hi && a.lo < b.lo
}

// mod returns a mod b for b != 0: one 128-by-64-bit division when b fits a
// word, else the normalised quotient estimate of Hacker's Delight (§9-5),
// which is exact or one too large before its decrement.
func (a u128) mod(b u128) u128 {
	if b.hi == 0 {
		return u128{lo: bits.Rem64(a.hi, a.lo, b.lo)}
	}
	n := uint(bits.LeadingZeros64(b.hi))
	bTop := b.hi<<n | b.lo>>(64-n)                      // b's top 64 bits, normalised
	q, _ := bits.Div64(a.hi>>1, a.hi<<63|a.lo>>1, bTop) // (a >> 1) / bTop
	q >>= 63 - n
	if q != 0 {
		q--
	}
	// q·b ≤ a, so the product fits 128 bits.
	pHi, pLo := bits.Mul64(q, b.lo)
	r := a.sub(u128{hi: pHi + q*b.hi, lo: pLo})
	if !r.less(b) {
		r = r.sub(b)
	}
	return r
}

// put writes a as a CiphertextSize-byte big-endian ciphertext; a < 2^96.
func (a u128) put(b []byte) {
	binary.BigEndian.PutUint32(b, uint32(a.hi))
	binary.BigEndian.PutUint64(b[4:], a.lo)
}

// putSeed writes a as a seedField-byte big-endian node coordinate; a < 2^96.
func (a u128) putSeed(b []byte) {
	b[0] = 0
	a.put(b[1:seedField])
}
