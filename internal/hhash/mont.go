package hhash

// Word-level Montgomery multiplication for odd moduli — every modulus
// Params admits: the engine of every exponentiation in the package — the
// multi-exponentiation ladder (multiExp), the single-base ladder of Lift
// (exp) and, on a throwaway per-candidate context, the prime search's
// base-2 test (primesearch.go). The loop is the fused CIOS variant (FIOS):
// the a·b[i] accumulation and the u·m reduction run in ONE pass over the
// accumulator per outer word, so t is loaded and stored once per step
// instead of twice. math/big's assembly kernels are not reachable from
// outside the standard library; a fused pure-Go loop over math/bits
// intrinsics (one MUL + ADC chain per limb pair) is the portable
// substitute. Each modulus width a session runs has one kernel: the
// 128-bit one sessions default to (k=2) runs unrolled Go kernels over
// named locals (montkern.go) on every host, and the 512-bit paper modulus
// (k=8) runs generated MULX/ADCX/ADOX kernels (mont_amd64.s, from
// montasm_gen.go) on amd64 CPUs with ADX and BMI2. Every other case — 512
// bits off ADX included — runs the generic loop, which is also the oracle
// the kernels are tested against.

import (
	"math/big"
	"math/bits"
)

// montCtx is immutable once built: every method reads it and keeps its
// working state on the caller's stack.
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

// useADX selects the MULX/ADCX/ADOX kernels (mont_amd64.s) for the
// 512-bit width: read from CPUID once, false off amd64.
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
	default:
		c.mulGeneric(dst, a, b)
	}
}

// sqr sets dst = a²·R⁻¹ mod m; dst may alias a. At 512 bits the assembly
// has a squaring of its own (17 % under mulADX8(a, a) in a ladder's
// dependent chain).
func (c *montCtx) sqr(dst, a []uint) {
	switch {
	case c.k == 2:
		sqr2(dst, a, c.m, c.n0inv)
	case c.k == 8 && useADX:
		sqrADX8((*[8]uint)(dst), (*[8]uint)(a), (*[8]uint)(c.m), c.n0inv)
	default:
		c.mulGeneric(dst, a, a)
	}
}

// mulGeneric is the generic loop: mul and sqr at every width without a
// kernel of its own (512 bits off ADX included), and the oracle the
// kernels are tested against.
func (c *montCtx) mulGeneric(dst, a, b []uint) {
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
	var stack [expStackLimbs]uint
	x := stack[:]
	if c.k > expStackLimbs {
		x = make([]uint, c.k)
	}
	x = x[:c.k]
	c.residue(x, base)
	c.mul(x, x, c.rr)
	return c.expMont(z, x, e)
}

// expMont is exp from a base already in Montgomery form (k limbs, left
// untouched): what lifting a Fold starts from.
func (c *montCtx) expMont(z *big.Int, base []uint, e *big.Int) *big.Int {
	if e.Sign() == 0 {
		return z.Set(_one)
	}
	k := c.k
	var stack [16 * expStackLimbs]uint
	buf := stack[:]
	if k > expStackLimbs {
		buf = make([]uint, 16*k)
	}
	tbl := func(d uint) []uint { return buf[(d-1)*uint(k) : d*uint(k)] } // base^d, d = 1..15
	acc := buf[15*k : 16*k]

	copy(tbl(1), base)

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

// mulPow sets acc = acc·v^e mod m, acc and the result in Montgomery form
// and v a plain value: v enters the domain (one multiplication by R²), is
// raised by square-and-multiply over e's bits — a reception count, a few
// bits wide — and multiplies into acc. Its working set stays on the stack
// up to expStackLimbs; acc is updated in place.
func (c *montCtx) mulPow(acc []uint, v *big.Int, e uint64) {
	k := c.k
	var stack [2 * expStackLimbs]uint
	buf := stack[:]
	if k > expStackLimbs {
		buf = make([]uint, 2*k)
	}
	x, p := buf[:k], buf[k:2*k]
	c.residue(x, v)
	c.mul(x, x, c.rr)
	if e != 1 {
		copy(p, x)
		for i := bits.Len64(e) - 2; i >= 0; i-- {
			c.sqr(p, p)
			if e>>uint(i)&1 == 1 {
				c.mul(p, p, x)
			}
		}
		x = p
	}
	c.mul(acc, acc, x)
}
