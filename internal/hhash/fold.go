package hhash

import "math/big"

// Fold is a running product ∏ v_i^(c_i) mod M: the embedded product of a
// multiset of updates with their reception multiplicities (§V-D), or any
// product of hash values. It is kept in Montgomery form, so folding one
// more factor in is a few word-level multiplications over the Fold's own
// limbs: no big.Int and no Key per factor. The zero Fold is the empty
// product, 1; Reset empties one and keeps its storage. A Fold is only
// meaningful to Hashers of the modulus it was folded under.
type Fold struct {
	acc    []uint // Montgomery form, k limbs; empty is the identity
	powers uint64 // factors folded with a count other than 1
}

// Reset empties f, keeping its storage for the next product.
func (f *Fold) Reset() {
	f.acc = f.acc[:0]
	f.powers = 0
}

// start returns f's accumulator, setting an empty one to 1.
func (h *Hasher) start(f *Fold) []uint {
	k := h.mc.k
	if len(f.acc) == 0 {
		if cap(f.acc) < k {
			f.acc = make([]uint, k)
		}
		f.acc = f.acc[:k]
		copy(f.acc, h.mc.one)
	}
	return f.acc
}

// Mul folds v^c into f in place: f ← f·v^c mod M. A count other than 1
// is a count-power, one logical hash-op (Counter); a count of 1 is a
// plain multiplication and costs none.
func (h *Hasher) Mul(f *Fold, v *big.Int, c uint64) {
	acc := h.start(f)
	if c != 1 {
		f.powers++
		if h.ops != nil {
			h.ops.hashOps.Add(1)
		}
	}
	if c != 0 { // v^0 = 1
		h.mc.mulPow(acc, v, c)
	}
}

// MulFold folds the product g holds into f: f ← f·g mod M. g's
// count-powers join f's (Recharge) at no cost.
func (h *Hasher) MulFold(f, g *Fold) {
	acc := h.start(f)
	if len(g.acc) > 0 {
		h.mc.mul(acc, acc, g.acc)
	}
	f.powers += g.powers
}

// Recharge attributes f's count-powers again, as hash-ops, without
// computing anything: what a caller owes when it lifts one fold for
// several parties, each of whose hashes Counter charges as if the set had
// been folded for it alone.
func (h *Hasher) Recharge(f *Fold) {
	if h.ops != nil {
		h.ops.hashOps.Add(f.powers)
	}
}

// LiftFold sets z to H(∏ fs)_(key,M), the product of the folds raised to
// key, and returns z: one lift, one hash-op and one lift span, whatever
// the folds hold. The folds are left as they are.
func (h *Hasher) LiftFold(z *big.Int, key Key, fs ...*Fold) *big.Int {
	if key.e == nil {
		panic("hhash: LiftFold with zero key")
	}
	if h.ops != nil {
		h.ops.hashOps.Add(1)
	}
	span := h.liftSpans.SpanStart()
	var stack [expStackLimbs]uint
	x := h.product(stack[:], fs)
	h.mc.expMont(z, x, key.e)
	h.liftSpans.SpanEnd(span)
	return z
}

// FoldValue sets z to the product f holds and returns z.
func (h *Hasher) FoldValue(z *big.Int, f *Fold) *big.Int {
	if len(f.acc) == 0 {
		return z.Set(_one)
	}
	var stack [expStackLimbs]uint
	x := stack[:]
	if h.mc.k > expStackLimbs {
		x = make([]uint, h.mc.k)
	}
	x = x[:h.mc.k]
	h.mc.mul(x, f.acc, h.mc.unit) // leave the Montgomery domain
	return limbsToInt(z, x)
}

// product returns ∏ fs in Montgomery form, in buf when it has room.
func (h *Hasher) product(buf []uint, fs []*Fold) []uint {
	k := h.mc.k
	if cap(buf) < k {
		buf = make([]uint, k)
	}
	x := buf[:k]
	copy(x, h.mc.one)
	for _, f := range fs {
		if len(f.acc) > 0 {
			h.mc.mul(x, x, f.acc)
		}
	}
	return x
}
