// Package primitives provides the basic cryptographic building blocks used
// by every DataBlinder tactic: an AEAD cipher (AES-256-GCM), a PRF
// (HMAC-SHA256), HKDF key derivation, and a deterministic SIV-style
// encryption mode.
//
// These correspond to the Bouncy Castle primitives used by the original
// DataBlinder proof of concept (AES/GCM, HMAC-SHA256, etc.), implemented
// here on top of the Go standard library.
package primitives

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"
	"sync"
)

const (
	// KeySize is the byte length of all symmetric keys (AES-256, HMAC).
	KeySize = 32
	// NonceSize is the AES-GCM nonce length in bytes.
	NonceSize = 12
	// TagSize is the AES-GCM authentication tag length in bytes.
	TagSize = 16
	// PRFSize is the output length of the PRF (HMAC-SHA256).
	PRFSize = sha256.Size
)

// Common errors returned by this package.
var (
	ErrBadKeyLength   = errors.New("primitives: key must be 32 bytes")
	ErrCiphertext     = errors.New("primitives: ciphertext too short")
	ErrAuthentication = errors.New("primitives: message authentication failed")
)

// Key is a 32-byte symmetric key.
type Key [KeySize]byte

// NewRandomKey returns a fresh key drawn from crypto/rand.
func NewRandomKey() (Key, error) {
	var k Key
	if _, err := io.ReadFull(rand.Reader, k[:]); err != nil {
		return Key{}, fmt.Errorf("primitives: generating key: %w", err)
	}
	return k, nil
}

// KeyFromBytes copies b into a Key. b must be exactly KeySize bytes.
func KeyFromBytes(b []byte) (Key, error) {
	var k Key
	if len(b) != KeySize {
		return k, ErrBadKeyLength
	}
	copy(k[:], b)
	return k, nil
}

// Zero overwrites the key material.
func (k *Key) Zero() {
	for i := range k {
		k[i] = 0
	}
}

// The HMAC pool: keyed HMAC states are reusable via Reset, so the states
// for frequently used keys are pooled instead of re-initialized (two
// SHA-256 key schedules plus several allocations) on every PRF call.
// The pool map is sharded to keep lookups contention-free and bounded per
// shard so an adversarial or merely huge keyword population cannot pin
// unbounded memory: keys beyond a shard's capacity simply fall back to
// hmac.New.
//
// The pool never evicts, so it is for long-lived keys only (root, field and
// purpose keys: a few dozen per schema). A key derived per keyword, per
// keyword pair or from a search token goes through PRFState instead: a
// corpus has unboundedly many of them, and the first few thousand would
// claim every slot for the life of the process.
const (
	macPoolShards   = 64
	macPoolPerShard = 64
)

type macShard struct {
	mu sync.RWMutex
	m  map[Key]*sync.Pool
}

var macShards [macPoolShards]macShard

// macPoolFor returns the HMAC state pool for key, or nil when the shard is
// full (callers fall back to a fresh HMAC).
func macPoolFor(key Key) *sync.Pool {
	sh := &macShards[key[0]%macPoolShards]
	sh.mu.RLock()
	p := sh.m[key]
	sh.mu.RUnlock()
	if p != nil {
		return p
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if p := sh.m[key]; p != nil {
		return p
	}
	if sh.m == nil {
		sh.m = make(map[Key]*sync.Pool, macPoolPerShard)
	}
	if len(sh.m) >= macPoolPerShard {
		return nil
	}
	k := key
	p = &sync.Pool{New: func() any { return hmac.New(sha256.New, k[:]) }}
	sh.m[key] = p
	return p
}

// PRF computes HMAC-SHA256(key, data...) over the concatenation of the data
// slices. It is the universal pseudo-random function used for token and
// address derivation throughout the SSE schemes.
func PRF(key Key, data ...[]byte) []byte {
	return PRFInto(nil, key, data...)
}

// PRFInto appends the PRF output to dst and returns the extended slice,
// letting hot paths reuse caller-owned buffers. dst may be nil.
func PRFInto(dst []byte, key Key, data ...[]byte) []byte {
	mac, pool := pooledMAC(key)
	for _, d := range data {
		mac.Write(d)
	}
	out := mac.Sum(dst)
	if pool != nil {
		mac.Reset()
		pool.Put(mac)
	}
	return out
}

// pooledMAC returns an HMAC state keyed with key, from the pool when the key
// has a slot there (the pool is then returned too) and fresh otherwise.
func pooledMAC(key Key) (hash.Hash, *sync.Pool) {
	if pool := macPoolFor(key); pool != nil {
		return pool.Get().(hash.Hash), pool
	}
	k := key // a copy, so that only this path moves a key to the heap
	return hmac.New(sha256.New, k[:]), nil
}

// PRFState is the PRF keyed once for a run of evaluations under one
// short-lived key: a per-keyword walk over cell addresses, the pads of one
// Mitra search, the two derivations of one insert. Keying costs two SHA-256
// key schedules and a handful of allocations; Append costs neither. Such a
// state never touches the HMAC pool; PooledPRFState borrows one from it for
// a long-lived key instead. Not safe for concurrent use.
type PRFState struct {
	mac  hash.Hash
	pool *sync.Pool // the state's HMAC pool; nil for a state of its own
}

// NewPRFState keys the PRF with key.
func NewPRFState(key Key) *PRFState {
	return &PRFState{mac: hmac.New(sha256.New, key[:])}
}

// PooledPRFState is NewPRFState for a long-lived key (root, field or
// purpose key): the keyed state is borrowed from the HMAC pool, so a run of
// evaluations costs no key schedule and no allocation, and Release hands it
// back. A key the pool has no slot for gets a state of its own.
func PooledPRFState(key Key) PRFState {
	mac, pool := pooledMAC(key)
	return PRFState{mac: mac, pool: pool}
}

// Release returns a borrowed state to the HMAC pool; s must not be used
// afterwards. It does nothing for a state from NewPRFState.
func (s *PRFState) Release() {
	if s.pool != nil {
		s.pool.Put(s.mac)
		s.mac, s.pool = nil, nil
	}
}

// Append appends PRF(key, data) to dst and returns the extended slice; the
// output equals PRFInto's over the concatenation of its data slices. data
// is handed to the hash, so a caller that wants an allocation-free loop
// keeps it in memory that already lives on the heap (a field of its walk
// state), not in a fresh stack array.
func (s *PRFState) Append(dst, data []byte) []byte {
	s.mac.Write(data)
	out := s.mac.Sum(dst)
	s.mac.Reset()
	return out
}

// PRFKey derives a sub-Key via the PRF. It is a convenience for building
// per-keyword or per-field key hierarchies.
func PRFKey(key Key, data ...[]byte) Key {
	var out Key
	PRFInto(out[:0], key, data...)
	return out
}

// PRFUint64 derives a pseudo-random uint64 from the PRF output.
func PRFUint64(key Key, data ...[]byte) uint64 {
	var buf [PRFSize]byte
	PRFInto(buf[:0], key, data...)
	return binary.BigEndian.Uint64(buf[:8])
}

// HKDF derives length bytes of key material from the input keying material
// using HKDF-SHA256 (RFC 5869) with the given salt and info strings.
func HKDF(ikm, salt, info []byte, length int) ([]byte, error) {
	if length <= 0 || length > 255*sha256.Size {
		return nil, fmt.Errorf("primitives: invalid HKDF output length %d", length)
	}
	// Extract.
	if salt == nil {
		salt = make([]byte, sha256.Size)
	}
	ext := hmac.New(sha256.New, salt)
	ext.Write(ikm)
	prk := ext.Sum(nil)
	// Expand.
	out := make([]byte, 0, length)
	var prev []byte
	for i := byte(1); len(out) < length; i++ {
		exp := hmac.New(sha256.New, prk)
		exp.Write(prev)
		exp.Write(info)
		exp.Write([]byte{i})
		prev = exp.Sum(nil)
		out = append(out, prev...)
	}
	return out[:length], nil
}

// deriveMemo caches DeriveKey results. Derivation is deterministic, so the
// cache is a pure speedup: HKDF runs once per (master, label). The map is
// dropped wholesale when it reaches deriveMemoMax entries — label sets are
// small and stable in practice (field × tactic × purpose), so eviction is
// effectively never hit outside adversarial inputs.
const deriveMemoMax = 4096

type deriveMemoKey struct {
	master Key
	label  string
}

var (
	deriveMemoMu sync.RWMutex
	deriveMemo   map[deriveMemoKey]Key
)

// DeriveKey derives a named sub-key from a master key using HKDF with the
// label as info. Derivation is deterministic: the same (master, label)
// always yields the same sub-key, and results are memoized so HKDF runs
// once per (master, label).
func DeriveKey(master Key, label string) (Key, error) {
	mk := deriveMemoKey{master: master, label: label}
	deriveMemoMu.RLock()
	k, ok := deriveMemo[mk]
	deriveMemoMu.RUnlock()
	if ok {
		return k, nil
	}
	raw, err := HKDF(master[:], nil, []byte(label), KeySize)
	if err != nil {
		return Key{}, err
	}
	k, err = KeyFromBytes(raw)
	if err != nil {
		return Key{}, err
	}
	deriveMemoMu.Lock()
	if deriveMemo == nil || len(deriveMemo) >= deriveMemoMax {
		deriveMemo = make(map[deriveMemoKey]Key, 64)
	}
	deriveMemo[mk] = k
	deriveMemoMu.Unlock()
	return k, nil
}

// AEAD wraps AES-256-GCM for authenticated encryption with associated data.
type AEAD struct {
	gcm cipher.AEAD
}

// NewAEAD constructs an AES-256-GCM AEAD from key.
func NewAEAD(key Key) (*AEAD, error) {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("primitives: AES init: %w", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("primitives: GCM init: %w", err)
	}
	return &AEAD{gcm: gcm}, nil
}

// Seal encrypts plaintext with a fresh random nonce and returns
// nonce || ciphertext || tag. ad is optional associated data.
func (a *AEAD) Seal(plaintext, ad []byte) ([]byte, error) {
	return a.SealInto(nil, plaintext, ad)
}

// SealInto appends nonce || ciphertext || tag to dst and returns the
// extended slice, letting hot paths reuse caller-owned buffers. dst may be
// nil (equivalent to Seal).
func (a *AEAD) SealInto(dst, plaintext, ad []byte) ([]byte, error) {
	var nonce [NonceSize]byte
	if _, err := io.ReadFull(rand.Reader, nonce[:]); err != nil {
		return nil, fmt.Errorf("primitives: nonce: %w", err)
	}
	need := len(dst) + NonceSize + len(plaintext) + TagSize
	if cap(dst) < need {
		grown := make([]byte, len(dst), need)
		copy(grown, dst)
		dst = grown
	}
	dst = append(dst, nonce[:]...)
	return a.gcm.Seal(dst, nonce[:], plaintext, ad), nil
}

// Open decrypts a blob produced by Seal, authenticating ad.
func (a *AEAD) Open(blob, ad []byte) ([]byte, error) {
	return a.OpenInto(nil, blob, ad)
}

// OpenInto appends the plaintext of blob to dst and returns the extended
// slice, letting hot paths decrypt into caller-owned scratch. dst may be
// nil (equivalent to Open); its spare capacity must not overlap blob.
func (a *AEAD) OpenInto(dst, blob, ad []byte) ([]byte, error) {
	if len(blob) < NonceSize+TagSize {
		return nil, ErrCiphertext
	}
	pt, err := a.gcm.Open(dst, blob[:NonceSize], blob[NonceSize:], ad)
	if err != nil {
		return nil, ErrAuthentication
	}
	return pt, nil
}

// DET is a deterministic authenticated encryption mode (SIV-style): the
// nonce is the truncated PRF of the plaintext under a separate MAC key, so
// equal plaintexts produce equal ciphertexts. This is the DET tactic's
// cryptographic core (protection class 4 — equality leakage).
type DET struct {
	aead   *AEAD
	macKey Key
}

// NewDET builds a deterministic cipher. encKey and macKey must be
// independent keys (derive them from a master key with distinct labels).
func NewDET(encKey, macKey Key) (*DET, error) {
	aead, err := NewAEAD(encKey)
	if err != nil {
		return nil, err
	}
	return &DET{aead: aead, macKey: macKey}, nil
}

// Encrypt deterministically encrypts plaintext. Equal inputs yield equal
// outputs; distinct inputs yield distinct outputs except with negligible
// probability.
func (d *DET) Encrypt(plaintext []byte) []byte {
	var sivBuf [PRFSize]byte
	siv := PRFInto(sivBuf[:0], d.macKey, plaintext)[:NonceSize]
	out := make([]byte, NonceSize, NonceSize+len(plaintext)+TagSize)
	copy(out, siv)
	return d.aead.gcm.Seal(out, siv, plaintext, nil)
}

// Decrypt reverses Encrypt, verifying both the GCM tag and the synthetic IV.
func (d *DET) Decrypt(blob []byte) ([]byte, error) {
	if len(blob) < NonceSize+TagSize {
		return nil, ErrCiphertext
	}
	pt, err := d.aead.gcm.Open(nil, blob[:NonceSize], blob[NonceSize:], nil)
	if err != nil {
		return nil, ErrAuthentication
	}
	var wantBuf [PRFSize]byte
	want := PRFInto(wantBuf[:0], d.macKey, pt)[:NonceSize]
	if subtle.ConstantTimeCompare(want, blob[:NonceSize]) != 1 {
		return nil, ErrAuthentication
	}
	return pt, nil
}

// RandomBytes returns n cryptographically random bytes.
func RandomBytes(n int) ([]byte, error) {
	b := make([]byte, n)
	if _, err := io.ReadFull(rand.Reader, b); err != nil {
		return nil, fmt.Errorf("primitives: random bytes: %w", err)
	}
	return b, nil
}

// XOR returns a XOR b. The slices must have equal length; XOR panics
// otherwise because mismatched pads indicate a protocol bug, not an
// operational error.
func XOR(a, b []byte) []byte {
	if len(a) != len(b) {
		panic(fmt.Sprintf("primitives: XOR length mismatch %d != %d", len(a), len(b)))
	}
	out := make([]byte, len(a))
	subtle.XORBytes(out, a, b)
	return out
}

// Uint64Bytes encodes v as 8 big-endian bytes.
func Uint64Bytes(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}
