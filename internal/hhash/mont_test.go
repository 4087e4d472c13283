package hhash

import (
	"bytes"
	"fmt"
	"math/big"
	mrand "math/rand"
	"testing"
)

// testModulus draws a modulus of exactly `bits` bits with the low bit as
// asked (the engine needs no structure beyond parity).
func testModulus(rnd *mrand.Rand, bits int, odd bool) *big.Int {
	m := new(big.Int).Rand(rnd, new(big.Int).Lsh(_one, uint(bits-1)))
	m.SetBit(m, bits-1, 1)
	if odd {
		m.SetBit(m, 0, 1)
	} else {
		m.SetBit(m, 0, 0)
	}
	return m
}

func hasherFor(t testing.TB, m *big.Int) *Hasher {
	t.Helper()
	p, err := ParamsFromModulus(m)
	if err != nil {
		t.Fatal(err)
	}
	return NewHasher(p, nil)
}

// TestLiftMatchesBig is the engine's differential test: Lift against
// big.Int.Exp over limb counts 1, 2, 3, 4, 8, 9 and 16 (full and partial top
// limbs), odd moduli (Montgomery) and even ones (the fallback), the edge
// bases, and the three exponent shapes the protocol produces — 1, a prime,
// and the three-prime product kPrev.
func TestLiftMatchesBig(t *testing.T) {
	rnd := mrand.New(mrand.NewSource(14))
	for _, bits := range []int{16, 48, 64, 65, 127, 128, 129, 192, 255, 256, 512, 513, 576, 1024} {
		for _, odd := range []bool{true, false} {
			m := testModulus(rnd, bits, odd)
			h := hasherFor(t, m)
			if got := h.montEngine() != nil; got != odd {
				t.Fatalf("bits=%d odd=%v: Montgomery engine present = %v", bits, odd, got)
			}
			prime := func() *big.Int {
				k, err := pregenPrime(rnd, bits)
				if err != nil {
					t.Fatal(err)
				}
				return k.e
			}
			p1, p2, p3 := prime(), prime(), prime()
			exps := []*big.Int{
				big.NewInt(1), big.NewInt(2), big.NewInt(15), big.NewInt(16), p1,
				new(big.Int).Mul(new(big.Int).Mul(p1, p2), p3),
			}
			mMinus1 := new(big.Int).Sub(m, _one)
			bases := []*big.Int{
				new(big.Int), big.NewInt(1), big.NewInt(2), mMinus1,
				new(big.Int).Set(m), new(big.Int).Add(m, _two),
				new(big.Int).Lsh(mMinus1, 70), big.NewInt(-3),
				new(big.Int).Rand(rnd, m), new(big.Int).Rand(rnd, m),
			}
			for _, e := range exps {
				key, err := KeyFromInt(e)
				if err != nil {
					t.Fatal(err)
				}
				for _, b := range bases {
					in := new(big.Int).Set(b)
					want := new(big.Int).Exp(b, e, m)
					if got := h.Lift(b, key); got.Cmp(want) != 0 {
						t.Fatalf("bits=%d odd=%v: %v^%v = %v, want %v", bits, odd, b, e, got, want)
					}
					if b.Cmp(in) != 0 {
						t.Fatalf("Lift mutated its base")
					}
				}
			}
		}
	}
}

// TestCombineMatchesBig: Combine against big.Int Mul + Mod at the kernel
// widths (128 and 512 bits), at widths the generic loop serves (256, 192
// and a partial top limb), on the even-modulus fallback, and on operands
// outside [0, M); it never mutates an operand.
func TestCombineMatchesBig(t *testing.T) {
	rnd := mrand.New(mrand.NewSource(17))
	for _, bits := range []int{64, 128, 192, 256, 512, 513, 1088} {
		for _, odd := range []bool{true, false} {
			m := testModulus(rnd, bits, odd)
			h := hasherFor(t, m)
			mMinus1 := new(big.Int).Sub(m, _one)
			vals := []*big.Int{
				new(big.Int), big.NewInt(1), big.NewInt(2), mMinus1,
				new(big.Int).Set(m), new(big.Int).Lsh(mMinus1, 70), big.NewInt(-3),
			}
			for i := 0; i < 200; i++ {
				vals = append(vals, new(big.Int).Rand(rnd, m))
			}
			for i, a := range vals {
				b := vals[(i*7+3)%len(vals)]
				inA, inB := new(big.Int).Set(a), new(big.Int).Set(b)
				want := new(big.Int).Mul(a, b)
				want.Mod(want, m)
				if got := h.Combine(a, b); got.Cmp(want) != 0 {
					t.Fatalf("bits=%d odd=%v: %v·%v = %v, want %v", bits, odd, a, b, got, want)
				}
				if a.Cmp(inA) != 0 || b.Cmp(inB) != 0 {
					t.Fatal("Combine mutated an operand")
				}
			}
			if !odd {
				continue
			}
			a, b := vals[len(vals)-1], vals[len(vals)-2]
			if allocs := testing.AllocsPerRun(50, func() { h.Combine(a, b) }); bits <= 1024 && allocs > 2 {
				t.Errorf("bits=%d: Combine allocates %.0f objects, want the result's two", bits, allocs)
			}
		}
	}
}

// TestModExpInPlaceAndZero covers what Lift cannot reach: a zero exponent
// (ProductEmbed multiplicity 0) and a receiver aliasing the base.
func TestModExpInPlaceAndZero(t *testing.T) {
	rnd := mrand.New(mrand.NewSource(15))
	for _, bits := range []int{64, 128, 256, 512} {
		m := testModulus(rnd, bits, true)
		h := hasherFor(t, m)
		v := new(big.Int).Rand(rnd, m)
		if got := h.modExp(new(big.Int), v, new(big.Int)); got.Cmp(_one) != 0 {
			t.Fatalf("v^0 = %v", got)
		}
		e := big.NewInt(0xfedcba987)
		want := new(big.Int).Exp(v, e, m)
		if h.modExp(v, v, e); v.Cmp(want) != 0 {
			t.Fatalf("in-place exp = %v, want %v", v, want)
		}
	}
}

// TestSqrMatchesMul pins the squaring kernels to the multiply kernels
// (themselves pinned to math/big by the MultiExp and Lift tests) on random
// limbs and on the carry-heavy extremes.
func TestSqrMatchesMul(t *testing.T) {
	rnd := mrand.New(mrand.NewSource(16))
	for _, k := range []int{1, 2, 3, 4, 8, 9} {
		for trial := 0; trial < 200; trial++ {
			var m *big.Int
			if trial%4 == 0 {
				// All-ones modulus: every reduction limb is at its maximum.
				m = new(big.Int).Sub(new(big.Int).Lsh(_one, uint(k*_W)), _one)
			} else {
				m = testModulus(rnd, k*_W-trial%3, true)
			}
			c := newMontCtx(m)
			if c == nil || c.k != k {
				t.Fatalf("k=%d: bad context", k)
			}
			var a *big.Int
			switch trial % 5 {
			case 0:
				a = new(big.Int).Sub(m, _one)
			case 1:
				a = new(big.Int).Sub(m, _two)
			default:
				a = new(big.Int).Rand(rnd, m)
			}
			al := c.limbsOf(a)
			viaMul, viaSqr := make([]uint, k), make([]uint, k)
			c.mul(viaMul, al, al)
			c.sqr(viaSqr, al)
			for i := range viaMul {
				if viaMul[i] != viaSqr[i] {
					t.Fatalf("k=%d m=%x a=%x: sqr %x, mul %x", k, m, a, viaSqr, viaMul)
				}
			}
			// And against the definition: a²·R⁻¹ mod m.
			rinv := new(big.Int).ModInverse(new(big.Int).Lsh(_one, uint(k*_W)), m)
			want := new(big.Int).Mul(a, a)
			want.Mul(want, rinv).Mod(want, m)
			if got := c.toInt(viaSqr); got.Cmp(want) != 0 {
				t.Fatalf("k=%d m=%x a=%x: sqr %x, want %x", k, m, a, got, want)
			}
			c.sqr(al, al) // aliased destination
			for i := range al {
				if al[i] != viaMul[i] {
					t.Fatalf("k=%d: aliased sqr differs", k)
				}
			}
		}
	}
}

// TestLiftAllocations: a lift allocates its result (the big.Int and its
// limbs) and nothing else, at every width with a kernel of its own.
func TestLiftAllocations(t *testing.T) {
	rnd := mrand.New(mrand.NewSource(17))
	for _, bits := range []int{128, 256, 512} {
		h := hasherFor(t, testModulus(rnd, bits, true))
		key, err := pregenPrime(rnd, bits)
		if err != nil {
			t.Fatal(err)
		}
		v := h.Embed([]byte("allocation gate"))
		h.Lift(v, key) // builds the engine
		if n := testing.AllocsPerRun(100, func() { h.Lift(v, key) }); n > 2 {
			t.Errorf("bits=%d: Lift allocates %.0f objects, want <= 2", bits, n)
		}
	}
}

func FuzzLiftMatchesBig(f *testing.F) {
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, []byte{0xff}, []byte{0x01})
	f.Add([]byte{0x80, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x01}, []byte{0x02}, []byte{0x01, 0x00, 0x01})
	f.Add([]byte{0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01}, []byte{0x00}, []byte{0xff, 0xff})
	f.Add([]byte{0xc5}, []byte{0xc4}, []byte{0x07})
	f.Add([]byte{0xde, 0xad, 0xbe, 0xee}, []byte{0xde, 0xad, 0xbe, 0xef, 0x01}, []byte{0x10})
	f.Add(bytes.Repeat([]byte{0xff}, 64), bytes.Repeat([]byte{0xfe}, 64), bytes.Repeat([]byte{0xab}, 24)) // k=8, all-ones
	f.Add(bytes.Repeat([]byte{0x9d}, 65), bytes.Repeat([]byte{0x77}, 70), []byte{0x03})                   // k=9, base >= M
	f.Fuzz(func(t *testing.T, mod, base, exp []byte) {
		if len(mod) > 160 || len(exp) > 200 || len(base) > 400 {
			t.Skip()
		}
		m := new(big.Int).SetBytes(mod)
		e := new(big.Int).SetBytes(exp)
		if m.Cmp(_two) <= 0 || e.Sign() == 0 {
			t.Skip()
		}
		b := new(big.Int).SetBytes(base)
		h := hasherFor(t, m)
		want := new(big.Int).Exp(b, e, m)
		if got := h.Lift(b, Key{e: e}); got.Cmp(want) != 0 {
			t.Fatalf("%x^%x mod %x = %x, want %x", b, e, m, got, want)
		}
	})
}

func BenchmarkMontKernels(b *testing.B) {
	rnd := mrand.New(mrand.NewSource(18))
	for _, k := range []int{2, 4, 8} {
		c := newMontCtx(testModulus(rnd, k*_W, true))
		a := c.limbsOf(new(big.Int).Rand(rnd, c.mod))
		dst := make([]uint, k)
		b.Run(fmt.Sprintf("mul/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.mul(dst, a, a)
			}
		})
		b.Run(fmt.Sprintf("sqr/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.sqr(dst, a)
			}
		})
	}
}
