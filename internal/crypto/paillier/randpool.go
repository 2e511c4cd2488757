package paillier

import (
	"math/big"
	"sync/atomic"
)

// The expensive part of a Paillier encryption is the random mask — an n-th
// residue mod n², one half-width Montgomery product per 8-bit digit of each
// factor's exponent (128 at 1024 bits) from the key holder's fixed-base
// tables. The mask is independent of the message, so it can be
// precomputed off the hot path: with a warm pool, Encrypt is a single
// modular multiplication. This is the classic offline/online split for
// Paillier (see the homomorphic encryption survey in PAPERS.md). Only a
// PrivateKey has a pool: a key without one computes every mask inline.

// randPool buffers precomputed masks for one private key. The filler
// goroutine is self-terminating: it runs only while the pool has room and
// exits once full, so keys need no Close/teardown lifecycle. A draw that
// leaves the pool less than half full re-kicks the filler if it has stopped.
type randPool struct {
	masks    chan *big.Int
	filling  atomic.Bool
	computed atomic.Int64 // masks computed for the pool; read by tests
	sk       *PrivateKey
}

// EnableRandPool attaches a mask pool of the given capacity to sk and
// starts filling it in the background. capacity <= 0 detaches any pool.
// Calling it again replaces the existing pool. Call it before sk is shared
// between goroutines.
func (sk *PrivateKey) EnableRandPool(capacity int) {
	if capacity <= 0 {
		sk.pool = nil
		return
	}
	p := &randPool{masks: make(chan *big.Int, capacity), sk: sk}
	sk.pool = p
	p.kick()
}

// RandPoolLen reports how many precomputed masks are ready to draw.
func (sk *PrivateKey) RandPoolLen() int {
	if sk.pool == nil {
		return 0
	}
	return len(sk.pool.masks)
}

// FillRandPool synchronously tops the pool up to capacity. Benchmarks call
// it to measure warm (pure online-phase) throughput.
func (sk *PrivateKey) FillRandPool() error {
	if sk.pool == nil {
		return nil
	}
	return sk.pool.topUp()
}

func (p *randPool) kick() {
	if p.filling.CompareAndSwap(false, true) {
		go func() {
			defer p.filling.Store(false)
			_ = p.topUp() // a rand.Reader failure surfaces on the inline path
		}()
	}
}

// topUp computes masks while the pool has room. It looks for room before
// paying for a mask, so topping up a pool that is k short costs k masks;
// the non-blocking send only loses one when a synchronous FillRandPool
// races the background filler for the last slot.
func (p *randPool) topUp() error {
	for len(p.masks) < cap(p.masks) {
		m, err := p.sk.newMask()
		if err != nil {
			return err
		}
		p.computed.Add(1)
		select {
		case p.masks <- m:
		default:
			return nil
		}
	}
	return nil
}

// mask returns a fresh mask, preferring the precomputed pool and falling
// back to inline computation when there is none or it is dry.
//
// The pool refills in bursts from half full rather than after every draw. A
// filler started by a draw runs next on the drawing goroutine's P, ahead of
// the rest of that insert's work; while a mask took longer than the gap
// between draws the filler never stopped and this did not matter, but a
// sub-millisecond mask per draw put the mask straight back on each insert's
// critical path (EXPERIMENTS.md, "Fixed-base Paillier masks").
func (sk *PrivateKey) mask() (*big.Int, error) {
	if p := sk.pool; p != nil {
		select {
		case m := <-p.masks:
			if len(p.masks) < cap(p.masks)/2 {
				p.kick()
			}
			return m, nil
		default:
			p.kick()
		}
	}
	return sk.newMask()
}
