package hhash

// Word-level Montgomery multiplication for odd moduli: the engine of every
// exponentiation in the package — the multi-exponentiation ladder
// (multiExp), the single-base ladder of Lift (exp) and, on a throwaway
// per-candidate context, the prime search's base-2 test (primesearch.go).
// The loop is the fused CIOS variant (FIOS):
// the a·b[i] accumulation and the u·m reduction run in ONE pass over the
// accumulator per outer word, so t is loaded and stored once per step
// instead of twice. math/big's assembly kernels are not reachable from
// outside the standard library; a fused pure-Go loop over math/bits
// intrinsics (one MUL + ADC chain per limb pair) is the portable
// substitute, and for two widths — the 512-bit paper modulus (k=8, below)
// and the 128-bit one sessions default to (k=2, montkern.go) — unrolled
// kernels over named locals eliminate every bounds check on the hot path.
// On amd64 CPUs with ADX and BMI2 the 512- and 256-bit widths run on
// generated MULX/ADCX/ADOX kernels instead (mont_amd64.s, from
// montasm_gen.go); the Go code stays as the path everywhere else and as
// the oracle those kernels are tested against.

import (
	"errors"
	"math/big"
	"math/bits"
)

// montCtx is immutable once built: every method reads it and keeps its
// working state on the caller's stack, so one context serves any number of
// goroutines at once (Hasher.Tags lifts on helpers).
type montCtx struct {
	mod   *big.Int
	m     []uint // modulus limbs, little-endian, len k
	k     int
	n0inv uint   // -m⁻¹ mod 2^W
	one   []uint // R mod m (Montgomery 1)
	rr    []uint // R² mod m (to-Montgomery factor)
	unit  []uint // plain 1: multiplying by it is the R⁻¹ step out of the domain
}

// newMontCtx builds the context; nil when the modulus is even or trivial
// (Montgomery needs gcd(m, 2^W) = 1).
func newMontCtx(mod *big.Int) *montCtx {
	if mod == nil || mod.BitLen() < 2 || mod.Bit(0) == 0 {
		return nil
	}
	words := mod.Bits()
	k := len(words)
	m := make([]uint, k)
	for i, w := range words {
		m[i] = uint(w)
	}
	c := &montCtx{mod: mod, m: m, k: k, n0inv: -invWord(m[0]), unit: make([]uint, k)}
	c.unit[0] = 1
	r := new(big.Int).Lsh(_one, uint(k)*_W)
	c.one = c.limbsOf(new(big.Int).Mod(r, mod))
	c.rr = c.limbsOf(new(big.Int).Mod(new(big.Int).Mul(r, r), mod))
	return c
}

// invWord returns x⁻¹ mod 2^W for odd x, by Newton iteration: x is its own
// inverse to 3 bits and each step doubles the valid low bits.
func invWord(x uint) uint {
	inv := x
	for i := 0; i < 5; i++ {
		inv *= 2 - x*inv
	}
	return inv
}

// limbsOf zero-pads v (which must be < m) to k limbs.
func (c *montCtx) limbsOf(v *big.Int) []uint {
	out := make([]uint, c.k)
	for i, w := range v.Bits() {
		out[i] = uint(w)
	}
	return out
}

// limbs returns k limbs of buf for a working value, or fresh ones when the
// modulus is wider than buf.
func (c *montCtx) limbs(buf []uint) []uint {
	if c.k > len(buf) {
		return make([]uint, c.k)
	}
	return buf[:c.k]
}

// toInt converts k limbs back to a big.Int.
func (c *montCtx) toInt(a []uint) *big.Int {
	return limbsToInt(new(big.Int), a)
}

// limbsToInt sets z to the value of the limbs, reusing z's storage when it
// has room, and returns z.
func limbsToInt(z *big.Int, a []uint) *big.Int {
	words := z.Bits()[:0]
	if cap(words) < len(a) {
		words = make([]big.Word, len(a))
	}
	words = words[:len(a)]
	n := 0
	for i, w := range a {
		words[i] = big.Word(w)
		if w != 0 {
			n = i + 1
		}
	}
	return z.SetBits(words[:n])
}

// toMont sets dst = v·R mod m for v < m.
func (c *montCtx) toMont(dst []uint, v *big.Int) {
	c.mul(dst, c.limbsOf(v), c.rr)
}

// fromMont converts a Montgomery-form value back to a plain residue.
func (c *montCtx) fromMont(a []uint) *big.Int {
	out := make([]uint, c.k)
	c.mul(out, a, c.unit)
	return c.toInt(out)
}

// useADX selects the MULX/ADCX/ADOX kernels (mont_amd64.s) for the 512-
// and 256-bit widths: read from CPUID once, false off amd64.
var useADX = hasADX()

// mul sets dst = a·b·R⁻¹ mod m. dst, a, b are k-limb; dst may alias a
// and/or b. The 128-bit width stays on its Go kernel everywhere: an
// assembly call costs more than the kernel's 8 ns.
func (c *montCtx) mul(dst, a, b []uint) {
	switch {
	case c.k == 2:
		mul2(dst, a, b, c.m, c.n0inv)
	case c.k == 8 && useADX:
		mulADX8((*[8]uint)(dst), (*[8]uint)(a), (*[8]uint)(b), (*[8]uint)(c.m), c.n0inv)
	case c.k == 4 && useADX:
		mulADX4((*[4]uint)(dst), (*[4]uint)(a), (*[4]uint)(b), (*[4]uint)(c.m), c.n0inv)
	default:
		c.mulPortable(dst, a, b)
	}
}

// sqr sets dst = a²·R⁻¹ mod m; dst may alias a. At 512 bits the assembly
// has a squaring of its own (17 % under mulADX8(a, a) in a ladder's
// dependent chain); at 256 bits one measured 3 to 10 % and was left out, so
// the multiply kernel squares there.
func (c *montCtx) sqr(dst, a []uint) {
	switch {
	case c.k == 2:
		sqr2(dst, a, c.m, c.n0inv)
	case c.k == 8 && useADX:
		sqrADX8((*[8]uint)(dst), (*[8]uint)(a), (*[8]uint)(c.m), c.n0inv)
	case c.k == 4 && useADX:
		ap := (*[4]uint)(a)
		mulADX4((*[4]uint)(dst), ap, ap, (*[4]uint)(c.m), c.n0inv)
	default:
		c.sqrPortable(dst, a)
	}
}

// mulPortable is mul on the pure-Go kernels alone: the only path off
// amd64 and on CPUs without ADX, and the oracle the assembly kernels are
// tested against.
func (c *montCtx) mulPortable(dst, a, b []uint) {
	switch c.k {
	case 8:
		mul8(dst, a, b, c.m, c.n0inv)
		return
	case 2:
		mul2(dst, a, b, c.m, c.n0inv)
		return
	}
	k := c.k
	m := c.m
	// The accumulator is the caller's, never the context's: wider moduli
	// than exp keeps on the stack take it from the heap, per call.
	var stack [expStackLimbs + 1]uint
	t := stack[:]
	if k > expStackLimbs {
		t = make([]uint, k+1)
	}
	t = t[:k+1]
	for i := 0; i < k; i++ {
		bi := b[i]
		hiA, loA := bits.Mul(a[0], bi)
		v, cc := bits.Add(t[0], loA, 0)
		carA := hiA + cc
		u := v * c.n0inv
		hiM, loM := bits.Mul(m[0], u)
		_, cc = bits.Add(v, loM, 0)
		carM := hiM + cc
		for j := 1; j < k; j++ {
			hiA, loA = bits.Mul(a[j], bi)
			v, cc = bits.Add(t[j], loA, 0)
			hiA += cc
			v, cc = bits.Add(v, carA, 0)
			carA = hiA + cc
			hiM, loM = bits.Mul(m[j], u)
			v, cc = bits.Add(v, loM, 0)
			hiM += cc
			v, cc = bits.Add(v, carM, 0)
			carM = hiM + cc
			t[j-1] = v
		}
		v, c1 := bits.Add(t[k], carA, 0)
		v, c2 := bits.Add(v, carM, 0)
		t[k-1] = v
		t[k] = c1 + c2
	}
	// Result < 2m (standard CIOS bound): one conditional subtraction.
	if t[k] != 0 || !limbsLess(t[:k], m) {
		var borrow uint
		for j := 0; j < k; j++ {
			dst[j], borrow = bits.Sub(t[j], m[j], borrow)
		}
	} else {
		copy(dst, t[:k])
	}
}

// sqrPortable is sqr on the pure-Go kernels alone: dedicated squarings at
// the two widths that have one, mulPortable elsewhere.
func (c *montCtx) sqrPortable(dst, a []uint) {
	switch c.k {
	case 8:
		sqr8(dst, a, c.m, c.n0inv)
	case 2:
		sqr2(dst, a, c.m, c.n0inv)
	default:
		c.mulPortable(dst, a, a)
	}
}

// MontgomeryOps returns one Montgomery multiplication and one squaring
// modulo the odd m as closures over fixed operands: on the kernels this
// machine dispatches to or, with portable set, on the pure-Go kernels that
// every machine without ADX runs. It is a probe for cmd/pag-bench's
// mont_mul and mont_sqr rows and selects nothing for the engine.
func MontgomeryOps(m *big.Int, portable bool) (mul, sqr func(), err error) {
	c := newMontCtx(m)
	if c == nil {
		return nil, nil, errors.New("hhash: Montgomery arithmetic needs an odd modulus > 1")
	}
	a, b, dst := c.limbsOf(new(big.Int).Rsh(m, 1)), c.limbsOf(new(big.Int).Rsh(m, 2)), make([]uint, c.k)
	if portable {
		return func() { c.mulPortable(dst, a, b) }, func() { c.sqrPortable(dst, a) }, nil
	}
	return func() { c.mul(dst, a, b) }, func() { c.sqr(dst, a) }, nil
}

// mul8 is the 512-bit (k=8) specialization: the outer loop is written
// against named locals rather than a slice-indexed accumulator, so the
// whole working set (a, m, t, carries) lives in registers or fixed stack
// slots with no bounds checks in the inner chain.
func mul8(dst, a, b, mod []uint, n0inv uint) {
	ap := (*[8]uint)(a)
	bp := (*[8]uint)(b)
	mp := (*[8]uint)(mod)
	a0, a1, a2, a3, a4, a5, a6, a7 := ap[0], ap[1], ap[2], ap[3], ap[4], ap[5], ap[6], ap[7]
	m0, m1, m2, m3, m4, m5, m6, m7 := mp[0], mp[1], mp[2], mp[3], mp[4], mp[5], mp[6], mp[7]
	var t0, t1, t2, t3, t4, t5, t6, t7, t8 uint
	var hiA, loA, hiM, loM, v, cc uint
	for i := 0; i < 8; i++ {
		bi := bp[i]
		hiA, loA = bits.Mul(a0, bi)
		v, cc = bits.Add(t0, loA, 0)
		carA := hiA + cc
		u := v * n0inv
		hiM, loM = bits.Mul(m0, u)
		_, cc = bits.Add(v, loM, 0)
		carM := hiM + cc
		hiA, loA = bits.Mul(a1, bi)
		v, cc = bits.Add(t1, loA, 0)
		hiA += cc
		v, cc = bits.Add(v, carA, 0)
		carA = hiA + cc
		hiM, loM = bits.Mul(m1, u)
		v, cc = bits.Add(v, loM, 0)
		hiM += cc
		v, cc = bits.Add(v, carM, 0)
		carM = hiM + cc
		t0 = v
		hiA, loA = bits.Mul(a2, bi)
		v, cc = bits.Add(t2, loA, 0)
		hiA += cc
		v, cc = bits.Add(v, carA, 0)
		carA = hiA + cc
		hiM, loM = bits.Mul(m2, u)
		v, cc = bits.Add(v, loM, 0)
		hiM += cc
		v, cc = bits.Add(v, carM, 0)
		carM = hiM + cc
		t1 = v
		hiA, loA = bits.Mul(a3, bi)
		v, cc = bits.Add(t3, loA, 0)
		hiA += cc
		v, cc = bits.Add(v, carA, 0)
		carA = hiA + cc
		hiM, loM = bits.Mul(m3, u)
		v, cc = bits.Add(v, loM, 0)
		hiM += cc
		v, cc = bits.Add(v, carM, 0)
		carM = hiM + cc
		t2 = v
		hiA, loA = bits.Mul(a4, bi)
		v, cc = bits.Add(t4, loA, 0)
		hiA += cc
		v, cc = bits.Add(v, carA, 0)
		carA = hiA + cc
		hiM, loM = bits.Mul(m4, u)
		v, cc = bits.Add(v, loM, 0)
		hiM += cc
		v, cc = bits.Add(v, carM, 0)
		carM = hiM + cc
		t3 = v
		hiA, loA = bits.Mul(a5, bi)
		v, cc = bits.Add(t5, loA, 0)
		hiA += cc
		v, cc = bits.Add(v, carA, 0)
		carA = hiA + cc
		hiM, loM = bits.Mul(m5, u)
		v, cc = bits.Add(v, loM, 0)
		hiM += cc
		v, cc = bits.Add(v, carM, 0)
		carM = hiM + cc
		t4 = v
		hiA, loA = bits.Mul(a6, bi)
		v, cc = bits.Add(t6, loA, 0)
		hiA += cc
		v, cc = bits.Add(v, carA, 0)
		carA = hiA + cc
		hiM, loM = bits.Mul(m6, u)
		v, cc = bits.Add(v, loM, 0)
		hiM += cc
		v, cc = bits.Add(v, carM, 0)
		carM = hiM + cc
		t5 = v
		hiA, loA = bits.Mul(a7, bi)
		v, cc = bits.Add(t7, loA, 0)
		hiA += cc
		v, cc = bits.Add(v, carA, 0)
		carA = hiA + cc
		hiM, loM = bits.Mul(m7, u)
		v, cc = bits.Add(v, loM, 0)
		hiM += cc
		v, cc = bits.Add(v, carM, 0)
		carM = hiM + cc
		t6 = v
		v, c1 := bits.Add(t8, carA, 0)
		v, c2 := bits.Add(v, carM, 0)
		t7 = v
		t8 = c1 + c2
	}
	dp := (*[8]uint)(dst)
	if t8 == 0 {
		// t < 2^512: subtract m only when t >= m.
		less := false
		switch {
		case t7 != m7:
			less = t7 < m7
		case t6 != m6:
			less = t6 < m6
		case t5 != m5:
			less = t5 < m5
		case t4 != m4:
			less = t4 < m4
		case t3 != m3:
			less = t3 < m3
		case t2 != m2:
			less = t2 < m2
		case t1 != m1:
			less = t1 < m1
		default:
			less = t0 < m0
		}
		if less {
			dp[0], dp[1], dp[2], dp[3] = t0, t1, t2, t3
			dp[4], dp[5], dp[6], dp[7] = t4, t5, t6, t7
			return
		}
	}
	var borrow uint
	dp[0], borrow = bits.Sub(t0, m0, borrow)
	dp[1], borrow = bits.Sub(t1, m1, borrow)
	dp[2], borrow = bits.Sub(t2, m2, borrow)
	dp[3], borrow = bits.Sub(t3, m3, borrow)
	dp[4], borrow = bits.Sub(t4, m4, borrow)
	dp[5], borrow = bits.Sub(t5, m5, borrow)
	dp[6], borrow = bits.Sub(t6, m6, borrow)
	dp[7], borrow = bits.Sub(t7, m7, borrow)
}

// limbsLess reports a < b for equal-length limb slices.
func limbsLess(a, b []uint) bool {
	for j := len(a) - 1; j >= 0; j-- {
		if a[j] != b[j] {
			return a[j] < b[j]
		}
	}
	return false
}

// multiExp runs the interleaved windowed ladder in the Montgomery domain.
func (c *montCtx) multiExp(bases, exps []*big.Int) *big.Int {
	n := len(bases)
	k := c.k

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

	// Per-base window tables in one flat arena: tbl(i, d) holds
	// base_i^d in Montgomery form for d = 1..2^w-1.
	arena := make([]uint, n*(tsize-1)*k)
	tbl := func(i, d int) []uint {
		off := (i*(tsize-1) + d - 1) * k
		return arena[off : off+k]
	}
	red := new(big.Int)
	for i, b := range bases {
		v := b
		if v.Sign() < 0 || v.Cmp(c.mod) >= 0 {
			v = red.Mod(b, c.mod)
		}
		c.toMont(tbl(i, 1), v)
		for d := 2; d < tsize; d++ {
			c.mul(tbl(i, d), tbl(i, d-1), tbl(i, 1))
		}
	}

	words := make([][]big.Word, n)
	for i, e := range exps {
		words[i] = e.Bits()
	}

	acc := make([]uint, k)
	copy(acc, c.one)
	nw := (maxBits + w - 1) / w
	for pos := nw - 1; pos >= 0; pos-- {
		if pos != nw-1 {
			for s := 0; s < w; s++ {
				c.sqr(acc, acc)
			}
		}
		for i := 0; i < n; i++ {
			if d := windowDigit(words[i], pos*w, w); d != 0 {
				c.mul(acc, acc, tbl(i, int(d)))
			}
		}
	}
	return c.fromMont(acc)
}

// residue sets the k limbs of dst to v mod m. Only a v outside [0, m)
// allocates.
func (c *montCtx) residue(dst []uint, v *big.Int) {
	if v.Sign() < 0 || v.Cmp(c.mod) >= 0 {
		v = new(big.Int).Mod(v, c.mod)
	}
	words := v.Bits()
	for i := range dst {
		dst[i] = 0
		if i < len(words) {
			dst[i] = uint(words[i])
		}
	}
}

// mulMod sets z = a·b mod m and returns z. mul leaves a·b·R⁻¹ and a second
// multiplication, by R², puts the R back: two word-level multiplications
// and no division. The only heap object is z's limb slice.
func (c *montCtx) mulMod(z, a, b *big.Int) *big.Int {
	k := c.k
	var stack [2 * expStackLimbs]uint
	buf := stack[:]
	if k > expStackLimbs {
		buf = make([]uint, 2*k)
	}
	x, y := buf[:k], buf[k:2*k]
	c.residue(x, a)
	c.residue(y, b)
	c.mul(x, x, y)
	c.mul(x, x, c.rr)
	return limbsToInt(z, x)
}

// expStackLimbs bounds the modulus width (1024 bits) whose exp working set
// — 15 window-table entries, the accumulator and one temporary — stays in
// a stack array; wider moduli take it from the heap.
const expStackLimbs = 16

// exp sets z = base^e mod m for e >= 0 and returns z: the single-base
// case of the ladder above, 4-bit fixed windows, squarings through sqr.
// The only heap object is z's limb slice (reused when z already has
// room), so a lift costs the caller's result and nothing else. z may
// alias base.
func (c *montCtx) exp(z, base, e *big.Int) *big.Int {
	if e.Sign() == 0 {
		return z.Set(_one)
	}
	k := c.k
	var stack [17 * expStackLimbs]uint
	buf := stack[:]
	if k > expStackLimbs {
		buf = make([]uint, 17*k)
	}
	tbl := func(d uint) []uint { return buf[(d-1)*uint(k) : d*uint(k)] } // base^d, d = 1..15
	acc := buf[15*k : 16*k]
	tmp := buf[16*k : 17*k]

	c.residue(tmp, base)
	c.mul(tbl(1), tmp, c.rr)

	words := e.Bits()
	ebits := e.BitLen()
	top := uint(15) // highest table entry any window can ask for
	if ebits <= 4 {
		top = uint(words[0])
	}
	for d := uint(2); d <= top; d++ {
		if d%2 == 0 {
			c.sqr(tbl(d), tbl(d/2))
		} else {
			c.mul(tbl(d), tbl(d-1), tbl(1))
		}
	}

	pos := (ebits - 1) / 4 // the top window holds the top bit: never zero
	copy(acc, tbl(windowDigit(words, pos*4, 4)))
	for pos--; pos >= 0; pos-- {
		c.sqr(acc, acc)
		c.sqr(acc, acc)
		c.sqr(acc, acc)
		c.sqr(acc, acc)
		if d := windowDigit(words, pos*4, 4); d != 0 {
			c.mul(acc, acc, tbl(d))
		}
	}

	c.mul(acc, acc, c.unit) // leave the Montgomery domain
	return limbsToInt(z, acc)
}
