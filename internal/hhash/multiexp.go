package hhash

// Simultaneous multi-exponentiation (Straus's interleaved windowed
// method): ∏ bases[i]^exps[i] mod M in roughly ONE squaring chain of
// max(bitlen) squarings plus one table multiplication per base per
// window, instead of one full exponentiation per base. This is the §V-B
// monitor verification hot path: a k-predecessor forwarding check costs
// about one exponentiation pass instead of k.

import (
	"fmt"
	"math/big"
	"math/bits"
)

const _W = bits.UintSize

// multiExpWindow picks the window width: wider windows trade table-build
// multiplications (2^w - 2 per base) for fewer per-window products.
func multiExpWindow(maxBits int) int {
	switch {
	case maxBits < 128:
		return 2
	case maxBits < 800:
		return 4
	default:
		return 5
	}
}

// multiExper is the fixed-modulus engine behind MultiExp: the word-level
// Montgomery context for odd moduli, the Barrett context otherwise.
type multiExper interface {
	multiExp(bases, exps []*big.Int) *big.Int
}

// MultiExp computes ∏ bases[i]^exps[i] mod M via interleaved windowed
// simultaneous exponentiation over the hasher's fixed-modulus reduction
// context. Exponents must be non-negative; bases are reduced mod M. It is
// a raw primitive: no operation counts are attributed (VerifyForwarding
// and VerifyBatch layer the Counter semantics on top).
func (h *Hasher) MultiExp(bases, exps []*big.Int) (*big.Int, error) {
	if len(bases) != len(exps) {
		return nil, fmt.Errorf("hhash: %d bases but %d exponents", len(bases), len(exps))
	}
	for _, e := range exps {
		if e == nil || e.Sign() < 0 {
			return nil, fmt.Errorf("hhash: multi-exp exponents must be non-negative")
		}
	}
	if len(bases) == 0 {
		return new(big.Int).Set(_one), nil
	}
	ctx := h.multiCtx()
	if ctx == nil {
		// Degenerate modulus (bitlen < 2): everything is congruent mod 1.
		return new(big.Int), nil
	}
	return ctx.multiExp(bases, exps), nil
}

// multiCtx lazily builds (once) the hasher's multi-exponentiation engine;
// nil when the modulus is degenerate.
func (h *Hasher) multiCtx() multiExper {
	if !h.multiBuilt {
		if mc := newMontCtx(h.params.m); mc != nil {
			h.multi = mc
		} else if bc := newModCtx(h.params.m); bc != nil {
			h.multi = bc
		}
		h.multiBuilt = true
	}
	return h.multi
}

// montEngine returns the engine when it is the Montgomery one; nil for an
// even or degenerate modulus.
func (h *Hasher) montEngine() *montCtx {
	mc, _ := h.multiCtx().(*montCtx)
	return mc
}

// multiExp runs the interleaved windowed ladder.
func (c *modCtx) multiExp(bases, exps []*big.Int) *big.Int {
	n := len(bases)

	maxBits := 0
	for _, e := range exps {
		if bl := e.BitLen(); bl > maxBits {
			maxBits = bl
		}
	}
	if maxBits == 0 {
		return new(big.Int).Set(_one) // every exponent is zero
	}
	w := multiExpWindow(maxBits)
	tsize := 1 << w

	// Per-base window tables: at(i, d) holds bases[i]^d mod m for
	// d = 1..2^w-1, in one flat allocation.
	tbl := make([]big.Int, n*(tsize-1))
	at := func(i, d int) *big.Int { return &tbl[i*(tsize-1)+d-1] }
	for i, b := range bases {
		v := at(i, 1)
		v.Mod(b, c.m)
		for d := 2; d < tsize; d++ {
			c.mulMod(at(i, d), at(i, d-1), v)
		}
	}

	words := make([][]big.Word, n)
	for i, e := range exps {
		words[i] = e.Bits()
	}

	acc := new(big.Int).Set(_one)
	nw := (maxBits + w - 1) / w
	for pos := nw - 1; pos >= 0; pos-- {
		if pos != nw-1 {
			for s := 0; s < w; s++ {
				c.mulMod(acc, acc, acc)
			}
		}
		for i := 0; i < n; i++ {
			if d := windowDigit(words[i], pos*w, w); d != 0 {
				c.mulMod(acc, acc, at(i, int(d)))
			}
		}
	}
	return acc
}

// windowDigit extracts bits [q, q+w) of a little-endian limb slice.
func windowDigit(words []big.Word, q, w int) uint {
	idx := q / _W
	if idx >= len(words) {
		return 0
	}
	off := uint(q % _W)
	d := uint(words[idx]) >> off
	if off+uint(w) > _W && idx+1 < len(words) {
		d |= uint(words[idx+1]) << (_W - off)
	}
	return d & (1<<uint(w) - 1)
}
