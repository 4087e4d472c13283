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

// MultiExp computes ∏ bases[i]^exps[i] mod M via interleaved windowed
// simultaneous exponentiation on the hasher's Montgomery context.
// Exponents must be non-negative; bases are reduced mod M. It is
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
	return h.mc.multiExp(bases, exps), nil
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
