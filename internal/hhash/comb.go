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
// serve: exponents wider than the width the base was declared for,
// released tables).
//
// An exchange tags a whole buffermap under one prime (Tags): the prime is
// recoded once, each tag is read from the limbs of its lift, and a batch
// large enough to pay for it is split across GOMAXPROCS goroutines.

import (
	"math/big"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// combTeeth is h, the number of exponent rows: 2^h − 1 table entries of
// one modulus width each (31 × 64 B ≈ 2 KB at the paper's 512 bits).
// Measured at 512 bits, lift / table: h=4 24 µs / 1.1 KB, h=5 19–23 µs /
// 2.1 KB, h=6 18–20 µs / 4.2 KB against 55–68 µs generic; 5 is the last
// step that buys more than it costs under the live-table budget
// (DESIGN.md "Fixed-base comb lifts").
const combTeeth = 5

// combColumns is a, the digit count of a table for exponents of up to
// expBits bits.
func combColumns(expBits int) int { return (expBits + combTeeth - 1) / combTeeth }

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
// comb table LiftFixed and Tags build on first use. A FixedBase is safe for
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
// hash-op, one lift span) — evaluated on b's comb table when the key is no
// wider than b was declared for and the table has not been released.
func (h *Hasher) LiftFixed(b *FixedBase, key Key) *big.Int {
	return h.lift(b.v, b, key)
}

// liftComb returns b.v^e mod M from b's table; nil when the comb cannot
// serve the call.
func (h *Hasher) liftComb(b *FixedBase, e *big.Int) *big.Int {
	t := b.tableFor(h.mc, e)
	if t == nil {
		return nil
	}
	var stack [expStackLimbs]uint
	acc := h.mc.limbs(stack[:])
	h.mc.combEval(acc, t, h.combDigitsOf(e, t.a))
	return h.mc.toInt(acc)
}

// tableFor returns b's table for an exponent e on mc, building and
// publishing it first if b has none; nil when the comb cannot serve the
// lift (e wider than declared, a released table, a table of another
// modulus). Safe on any number of goroutines at once.
func (b *FixedBase) tableFor(mc *montCtx, e *big.Int) *combTable {
	if e.BitLen() > b.expBits {
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
	return t
}

// combDigitsOf is combDigits for the last exponent LiftFixed or Tags ran
// under, kept: an exchange lifts every base of its buffermap under one
// prime. The hasher holds on to e itself, which is what makes the pointer
// comparison sound (keys are immutable, and a live pointer cannot be
// recycled for another exponent).
func (h *Hasher) combDigitsOf(e *big.Int, a int) []uint8 {
	if h.combDigitsE != e || len(h.combDigits) != a {
		h.combDigitsE, h.combDigits = e, combDigits(h.combDigits, e, a)
	}
	return h.combDigits
}

// combDigits recodes e into its a comb digits, d_i = Σ_j bit(i + a·j)·2^j,
// in dst's storage when it has room.
func combDigits(dst []uint8, e *big.Int, a int) []uint8 {
	if cap(dst) < a {
		dst = make([]uint8, a)
	}
	digits := dst[:a]
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
	return digits
}

// buildComb tabulates base for exponents of up to expBits bits:
// (h−1)·a squarings for the row powers u^(2^(a·j)) and one multiplication
// for each of the 2^h − h − 1 composite entries — about the cost of 0.6
// generic lifts at any width.
func (c *montCtx) buildComb(base *big.Int, expBits int) *combTable {
	k := c.k
	a := combColumns(expBits)
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

// combEval sets the k limbs of acc to ∏_i T[digits[i]]^(2^i) mod m, out of
// the Montgomery domain. It is the one comb loop: LiftFixed makes a
// big.Int of acc, Tags reads its low limb. A zero digit skips its
// multiplication: the same data-dependent shortcut exp takes on a zero
// window.
func (c *montCtx) combEval(acc []uint, t *combTable, digits []uint8) {
	i := len(digits) - 1
	for i >= 0 && digits[i] == 0 {
		i--
	}
	if i < 0 { // zero exponent
		clear(acc)
		acc[0] = 1
		return
	}
	copy(acc, t.ent(digits[i]))
	for i--; i >= 0; i-- {
		c.sqr(acc, acc)
		if d := digits[i]; d != 0 {
			c.mul(acc, acc, t.ent(d))
		}
	}
	c.mul(acc, acc, c.unit) // the R⁻¹ step
}

// limbsTag is Params.Tag of the value whose little-endian limbs are a.
func limbsTag(a []uint) uint64 {
	t := uint64(a[0])
	if bits.UintSize == 32 && len(a) > 1 {
		t |= uint64(a[1]) << 32
	}
	return t
}

// Tags sets dst[i] to the buffermap tag of bases[i] lifted under key —
// Params.Tag(LiftFixed(bases[i], key)) — for every i; dst must hold
// len(bases) tags. The value and the accounting are those of len(bases)
// LiftFixed calls: one hash-op and one lift span per tag, on every path.
// The prime is recoded once for the batch and a tag is read from the
// limbs of its lift, so a batch allocates nothing per tag (tables the call
// builds aside, and bases the comb cannot serve, which take the generic
// ladder). A batch whose predicted work reaches tagSplitWork is split
// across GOMAXPROCS goroutines; Tags returns once every helper has exited.
func (h *Hasher) Tags(dst []uint64, bases []*FixedBase, key Key) {
	if key.e == nil {
		panic("hhash: Tags with zero key")
	}
	n := len(bases)
	if n == 0 {
		return
	}
	dst = dst[:n]
	if h.ops != nil {
		h.ops.hashOps.Add(uint64(n))
	}
	tb := tagBatch{mc: h.mc, params: h.params, e: key.e, bases: bases, dst: dst, spans: h.liftSpans,
		digits: h.combDigitsOf(key.e, combColumns(bases[0].expBits))}
	chunk, helpers := tagPlan(n, bases[0].expBits, len(h.params.m.Bits()), runtime.GOMAXPROCS(0))
	if helpers == 0 {
		tb.run(0, n)
		return
	}
	s := &tagSplit{tagBatch: tb, chunk: chunk}
	var wg sync.WaitGroup
	wg.Add(helpers)
	for range helpers {
		go func() {
			defer wg.Done()
			s.work()
		}()
	}
	s.work()
	wg.Wait()
}

// tagSplitWork is the predicted work — tags × comb columns × limbs² — at
// which Tags splits a batch, and tagChunkWork the work one claim takes.
// Measured with BenchmarkTags on a 2-core VM (CHANGES.md): a helper starts
// ~90 µs after it is spawned, so a split 512-bit batch (a tag is ~6600
// units and ~14 µs) breaks even at ~5 tags and gains 25 % at 12; the
// threshold sits at 10. A 128-bit tag is ~100 units, so no buffermap-sized
// 128-bit batch splits. One 512-bit tag per claim lets a late helper still
// take half of what is left; at 128 bits a claim is ~40 tags.
const (
	tagSplitWork = 1 << 16
	tagChunkWork = 1 << 12
)

// tagPlan returns how many tags one claim takes and how many helper
// goroutines a batch of n tags gets beside the caller (0: run it inline).
// It depends on nothing but the batch's shape and procs.
func tagPlan(n, expBits, limbs, procs int) (chunk, helpers int) {
	perTag := max(1, combColumns(expBits)*limbs*limbs)
	if procs < 2 || n*perTag < tagSplitWork {
		return n, 0
	}
	chunk = max(1, tagChunkWork/perTag)
	return chunk, min(procs, (n+chunk-1)/chunk) - 1
}

// tagBatch is one Tags call's read-only inputs. Workers share it: the
// engine is immutable, the digits are written before any worker starts,
// and each worker writes only the dst indices it claimed.
type tagBatch struct {
	mc     *montCtx
	params Params
	e      *big.Int
	digits []uint8 // e recoded for tables of bases[0]'s width
	bases  []*FixedBase
	dst    []uint64
	spans  *obs.Histogram
}

// run writes the tags of bases[lo:hi] with its working set on its own
// stack.
func (b *tagBatch) run(lo, hi int) {
	var stack [expStackLimbs]uint
	acc := b.mc.limbs(stack[:])
	var own []uint8 // e recoded for a table of another width
	for i := lo; i < hi; i++ {
		span := b.spans.SpanStart()
		fb := b.bases[i]
		if t := fb.tableFor(b.mc, b.e); t != nil {
			digits := b.digits
			if len(digits) != t.a {
				own = combDigits(own, b.e, t.a)
				digits = own
			}
			b.mc.combEval(acc, t, digits)
			b.dst[i] = limbsTag(acc)
		} else {
			b.dst[i] = b.params.Tag(b.mc.exp(new(big.Int), fb.v, b.e))
		}
		b.spans.SpanEnd(span)
	}
}

// tagSplit is a batch split across goroutines: each worker claims chunk
// indices at a time from next until none are left. The caller works too,
// so a helper that starts after every chunk was claimed only exits, and a
// batch finishes at the caller's pace when no helper is scheduled.
type tagSplit struct {
	tagBatch
	chunk int
	next  atomic.Int64 // first unclaimed index
}

func (s *tagSplit) work() {
	n := int64(len(s.bases))
	for {
		lo := s.next.Add(int64(s.chunk)) - int64(s.chunk)
		if lo >= n {
			return
		}
		s.run(int(lo), int(min(lo+int64(s.chunk), n)))
	}
}
