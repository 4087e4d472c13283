package hhash

// Fixed-base comb exponentiation (Lim–Lee) for the §V-D buffermap: an
// update's embedding is lifted under a fresh prime by every node that owns
// or forwards it — one base, many exponents of one known width. The base
// therefore carries a table, built once on the first lift and shared by
// every hasher that lifts it afterwards:
//
//	T[d] = ∏_{j ∈ d} u^(2^(a·j))   d = 1 .. 2^h − 1,  a = ⌈expBits/h⌉
//
// in Montgomery form. Writing the exponent as h rows of a bits, column i
// of that matrix is the digit d_i, and
//
//	u^e = ∏_i T[d_i]^(2^i)
//
// is evaluated by Horner's rule in a−1 squarings and at most a
// multiplications, against the generic ladder's expBits squarings,
// expBits/4 multiplications and 14-entry per-call table (montCtx.exp,
// which stays the oracle and the path for everything the table cannot
// serve: exponents wider than the width the base was declared for, even
// moduli, released tables).

import (
	"math/big"
	"sync/atomic"
)

// combTeeth is h, the number of exponent rows: 2^h − 1 table entries of
// one modulus width each (31 × 64 B ≈ 2 KB at the paper's 512 bits).
// Measured at 512 bits, lift / table: h=4 24 µs / 1.1 KB, h=5 19–23 µs /
// 2.1 KB, h=6 18–20 µs / 4.2 KB against 55–68 µs generic; 5 is the last
// step that buys more than it costs under the live-table budget
// (DESIGN.md "Fixed-base comb lifts").
const combTeeth = 5

// combTable is one base's comb under one modulus. Immutable once
// published.
type combTable struct {
	mod  *big.Int // the modulus the entries are residues of
	a    int      // digits per exponent; the table spans combTeeth·a bits
	k    int      // limbs per entry
	ents []uint   // T[1..2^h−1], k limbs each, Montgomery form
}

func (t *combTable) ent(d uint8) []uint {
	return t.ents[(int(d)-1)*t.k : int(d)*t.k]
}

// combReleased marks a base whose table was dropped for good: later lifts
// take the generic ladder instead of rebuilding it.
var combReleased = new(combTable)

// FixedBase is a residue that is lifted repeatedly under exponents of a
// known width — an update's embedding under exchange primes. It owns the
// comb table LiftFixed builds on first use. A FixedBase is safe for
// concurrent use by any number of Hashers over the same modulus: the
// residue is read-only and the table is published with a compare-and-swap
// (racing builders compute identical tables; one survives).
type FixedBase struct {
	v       *big.Int
	expBits int
	comb    atomic.Pointer[combTable]
}

// NewFixedBase wraps the residue v, which the caller must not modify
// afterwards, for lifts under exponents of up to expBits bits.
func NewFixedBase(v *big.Int, expBits int) *FixedBase {
	return &FixedBase{v: v, expBits: expBits}
}

// Value returns the residue itself (read-only) — the variable-base paths
// (Combine, Lift under count and product keys) take it as is.
func (b *FixedBase) Value() *big.Int { return b.v }

// Release drops the table and keeps it dropped. Owners call it once no
// exchange can lift the base again; a straggler's LiftFixed still returns
// the same value, from the generic ladder.
func (b *FixedBase) Release() { b.comb.Store(combReleased) }

// HasTable reports whether a built table is currently attached.
func (b *FixedBase) HasTable() bool {
	t := b.comb.Load()
	return t != nil && t != combReleased
}

// LiftFixed is Lift(b.Value(), key) — same value, same accounting (one
// hash-op, one lift span) — evaluated on b's comb table when the modulus
// is odd, the key is no wider than b was declared for and the table has
// not been released.
func (h *Hasher) LiftFixed(b *FixedBase, key Key) *big.Int {
	return h.lift(b.v, b, key)
}

// liftComb returns b.v^e mod M from b's table, building and publishing
// the table first if b has none; nil when the comb cannot serve the call.
func (h *Hasher) liftComb(b *FixedBase, e *big.Int) *big.Int {
	mc := h.montEngine()
	if mc == nil || e.BitLen() > b.expBits {
		return nil
	}
	t := b.comb.Load()
	if t == nil {
		t = mc.buildComb(b.v, b.expBits)
		if !b.comb.CompareAndSwap(nil, t) {
			t = b.comb.Load()
		}
	}
	if t == combReleased || (t.mod != mc.mod && t.mod.Cmp(mc.mod) != 0) {
		return nil
	}
	return mc.combExp(t, h.combDigitsOf(e, t.a))
}

// combDigitsOf recodes e into its a comb digits, d_i = Σ_j bit(i + a·j)·2^j.
// An exchange lifts every base of its buffermap under one prime, so the
// last recoding is kept; the hasher holds on to e itself, which is what
// makes the pointer comparison sound (keys are immutable, and a live
// pointer cannot be recycled for another exponent).
func (h *Hasher) combDigitsOf(e *big.Int, a int) []uint8 {
	if h.combExp == e && len(h.combDigits) == a {
		return h.combDigits
	}
	if cap(h.combDigits) < a {
		h.combDigits = make([]uint8, a)
	}
	digits := h.combDigits[:a]
	words := e.Bits()
	for i := range digits {
		var d uint8
		for j := 0; j < combTeeth; j++ {
			pos := i + a*j
			if w := pos / _W; w < len(words) {
				d |= uint8(words[w]>>(uint(pos)%_W)&1) << j
			}
		}
		digits[i] = d
	}
	h.combExp, h.combDigits = e, digits
	return digits
}

// buildComb tabulates base for exponents of up to expBits bits:
// (h−1)·a squarings for the row powers u^(2^(a·j)) and one multiplication
// for each of the 2^h − h − 1 composite entries — about the cost of 0.6
// generic lifts at any width.
func (c *montCtx) buildComb(base *big.Int, expBits int) *combTable {
	k := c.k
	a := (expBits + combTeeth - 1) / combTeeth
	t := &combTable{mod: c.mod, a: a, k: k, ents: make([]uint, (1<<combTeeth-1)*k)}
	if base.Sign() < 0 || base.Cmp(c.mod) >= 0 {
		base = new(big.Int).Mod(base, c.mod)
	}
	c.toMont(t.ent(1), base)
	for j := 1; j < combTeeth; j++ {
		row := t.ent(1 << j)
		copy(row, t.ent(1<<(j-1)))
		for s := 0; s < a; s++ {
			c.sqr(row, row)
		}
	}
	for d := uint8(3); d < 1<<combTeeth; d++ {
		if low := d & -d; low != d {
			c.mul(t.ent(d), t.ent(d^low), t.ent(low))
		}
	}
	return t
}

// combExp returns ∏_i T[digits[i]]^(2^i) mod m. Like exp, the working set
// is on the stack up to 1024-bit moduli and the result is the only heap
// object. A zero digit skips its multiplication: the same data-dependent
// shortcut exp takes on a zero window.
func (c *montCtx) combExp(t *combTable, digits []uint8) *big.Int {
	i := len(digits) - 1
	for i >= 0 && digits[i] == 0 {
		i--
	}
	if i < 0 {
		return new(big.Int).Set(_one) // zero exponent
	}
	k := c.k
	var stack [2 * expStackLimbs]uint
	buf := stack[:]
	if k > expStackLimbs {
		buf = make([]uint, 2*k)
	}
	acc, plainOne := buf[:k], buf[k:2*k]
	copy(acc, t.ent(digits[i]))
	for i--; i >= 0; i-- {
		c.sqr(acc, acc)
		if d := digits[i]; d != 0 {
			c.mul(acc, acc, t.ent(d))
		}
	}
	// Leave the Montgomery domain: multiplying by plain 1 is the R⁻¹ step.
	plainOne[0] = 1
	c.mul(acc, acc, plainOne)
	return c.toInt(acc)
}
