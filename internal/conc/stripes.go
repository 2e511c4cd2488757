package conc

import "sync"

// StripeCount is how many mutexes a Stripes holds.
const StripeCount = 64

// Stripes is a fixed array of mutexes standing in for one lock per key:
// a key locks the mutex its hash picks, so two keys share a mutex only when
// their hashes collide modulo StripeCount. The zero value is ready to use.
type Stripes [StripeCount]sync.Mutex

// Stripe returns the index of the mutex guarding the key made of parts: an
// FNV-1a hash of the parts joined by zero bytes, taken without building the
// joined string.
func Stripe(parts ...string) int {
	h := uint32(2166136261)
	for i, p := range parts {
		if i > 0 {
			h *= 16777619 // the zero byte between parts: h ^= 0 is a no-op
		}
		for j := 0; j < len(p); j++ {
			h ^= uint32(p[j])
			h *= 16777619
		}
	}
	return int(h % StripeCount)
}

// For returns the mutex guarding the key made of parts.
func (s *Stripes) For(parts ...string) *sync.Mutex { return &s[Stripe(parts...)] }
