package hhash

// Batched verification: fold the hash checks accumulated within an
// exchange window into ONE multi-exponentiation equation via small
// random coefficients, with a per-check fallback that keeps blame exact.
//
// Soundness argument: each check asserts vᵢ^(pᵢ) == aᵢ (mod M). Draw
// independent uniform 64-bit coefficients cᵢ and test
//
//	∏ vᵢ^(cᵢ·pᵢ)  ==  ∏ aᵢ^(cᵢ)   (mod M).
//
// If every check holds, the equation holds identically — a passing set is
// NEVER sent to the fallback. If some check fails, write dᵢ = vᵢ^(pᵢ)/aᵢ
// (in the group of invertible residues; non-invertible values would
// expose a factor of M and cannot be produced by the protocol): the batch
// passes iff ∏ dᵢ^(cᵢ) == 1, a nontrivial multiplicative relation the
// independent 64-bit cᵢ satisfy with probability ≲ 2⁻⁶⁴ (the standard
// small-exponent batching bound, heuristic in a group of unknown order).
// A cheating predecessor therefore slips through with negligible
// probability, and when a batch DOES fail, the per-check fallback
// re-verifies each equation individually so the accusation names exactly
// the checks that are wrong — batching never blurs blame.

import (
	"encoding/binary"
	"io"
	"math/big"
)

// Check is one deferred hash equation: Base^Key == Want (mod M).
type Check struct {
	Base *big.Int
	Key  Key
	Want *big.Int
}

// VerifyBatch verifies all checks in one folded equation, reading one
// 64-bit coefficient per check from coeffs. It returns (true, nil) when
// every check holds; otherwise (false, indices of the failing checks).
// Keys must be non-zero.
//
// Counter semantics match per-check verification exactly — one logical
// hash-op and one lift-histogram observation per check, on the success
// and the failure path alike — so Table I accounting and the
// deterministic metrics snapshot are identical whichever mode ran. The
// coefficient stream must NOT be the node's prime stream: coefficients
// never reach the wire, and drawing them from the prime stream would
// shift the prime sequence relative to the unbatched path.
func (h *Hasher) VerifyBatch(coeffs io.Reader, checks []Check) (bool, []int) {
	if len(checks) == 0 {
		return true, nil
	}
	if h.ops != nil {
		h.ops.hashOps.Add(uint64(len(checks)))
	}
	span := h.liftSpans.SpanStart()
	defer func() {
		h.liftSpans.SpanEnd(span)
		// One deterministic observation per check (the batch's wall time
		// lands on the first; ClassTimed snapshots expose only counts).
		for i := 1; i < len(checks); i++ {
			h.liftSpans.Observe(0)
		}
	}()

	var buf [8]byte
	lhsExp := make([]*big.Int, len(checks))
	rhsExp := make([]*big.Int, len(checks))
	bases := make([]*big.Int, len(checks))
	wants := make([]*big.Int, len(checks))
	for i, c := range checks {
		if c.Key.IsZero() || c.Base == nil || c.Want == nil {
			return false, h.verifyEach(checks)
		}
		if _, err := io.ReadFull(coeffs, buf[:]); err != nil {
			// No coefficients: verify individually (same counters).
			return false, h.verifyEach(checks)
		}
		ci := binary.BigEndian.Uint64(buf[:])
		if ci == 0 {
			ci = 1
		}
		cBig := new(big.Int).SetUint64(ci)
		bases[i] = c.Base
		wants[i] = c.Want
		lhsExp[i] = new(big.Int).Mul(cBig, c.Key.e)
		rhsExp[i] = cBig
	}
	lhs, err := h.MultiExp(bases, lhsExp)
	if err != nil {
		return false, h.verifyEach(checks)
	}
	rhs, err := h.MultiExp(wants, rhsExp)
	if err != nil {
		return false, h.verifyEach(checks)
	}
	if lhs.Cmp(rhs) == 0 {
		return true, nil
	}
	bad := h.verifyEach(checks)
	if len(bad) == 0 {
		// A false batch reject cannot arise from the algebra (a passing
		// set satisfies the folded equation identically); reaching here
		// means a caller-supplied inconsistency. Fail closed on all.
		for i := range checks {
			bad = append(bad, i)
		}
	}
	return false, bad
}

// verifyEach re-checks every equation individually and returns the
// indices that fail, in ascending order. No counters: VerifyBatch already
// attributed one hash-op per check, which is what the unbatched path
// would have recorded.
func (h *Hasher) verifyEach(checks []Check) []int {
	var bad []int
	got := new(big.Int)
	for i, c := range checks {
		if c.Key.IsZero() || c.Base == nil || c.Want == nil {
			bad = append(bad, i)
			continue
		}
		h.mc.exp(got, c.Base, c.Key.e)
		if got.Cmp(c.Want) != 0 {
			bad = append(bad, i)
		}
	}
	return bad
}
