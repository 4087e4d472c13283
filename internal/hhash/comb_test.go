package hhash

import (
	"bytes"
	"fmt"
	"math/big"
	mrand "math/rand"
	"sync"
	"testing"
)

// TestLiftFixedMatchesBig is the comb's differential test, over the same
// grid as TestLiftMatchesBig: limb counts 1, 2, 3, 4, 8, 9 and 16, odd moduli
// (the comb) and even ones (the fallback), the edge bases, and exponents
// of 1, below one window, prime-sized with the top bit set, exactly at the
// declared width, and wider than it (the fallback). Every value is checked
// against big.Int.Exp and against the generic Lift.
func TestLiftFixedMatchesBig(t *testing.T) {
	rnd := mrand.New(mrand.NewSource(21))
	for _, bits := range []int{16, 48, 64, 65, 127, 128, 129, 192, 255, 256, 512, 513, 576, 1024} {
		for _, odd := range []bool{true, false} {
			m := testModulus(rnd, bits, odd)
			h := hasherFor(t, m)
			p1, err := pregenPrime(rnd, bits)
			if err != nil {
				t.Fatal(err)
			}
			p2, err := pregenPrime(rnd, bits)
			if err != nil {
				t.Fatal(err)
			}
			allOnes := new(big.Int).Sub(new(big.Int).Lsh(_one, uint(bits)), _one)
			exps := []*big.Int{
				big.NewInt(1), big.NewInt(2), big.NewInt(15), big.NewInt(16),
				p1.e, p2.e, allOnes,
				new(big.Int).Lsh(_one, uint(bits-1)), // only the top bit
				new(big.Int).Lsh(_one, uint(bits)),   // one bit too wide
				new(big.Int).Mul(p1.e, p2.e),         // a product key
			}
			mMinus1 := new(big.Int).Sub(m, _one)
			bases := []*big.Int{
				new(big.Int), big.NewInt(1), big.NewInt(2), mMinus1,
				new(big.Int).Set(m), new(big.Int).Add(m, _two),
				new(big.Int).Lsh(mMinus1, 70), big.NewInt(-3),
				new(big.Int).Rand(rnd, m), new(big.Int).Rand(rnd, m),
			}
			for _, b := range bases {
				in := new(big.Int).Set(b)
				fb := NewFixedBase(b, bits)
				for _, e := range exps {
					want := new(big.Int).Exp(b, e, m)
					key := Key{e: e}
					if got := h.LiftFixed(fb, key); got.Cmp(want) != 0 {
						t.Fatalf("bits=%d odd=%v: fixed %v^%v = %v, want %v", bits, odd, b, e, got, want)
					}
					if got := h.Lift(b, key); got.Cmp(want) != 0 {
						t.Fatalf("bits=%d odd=%v: generic %v^%v = %v, want %v", bits, odd, b, e, got, want)
					}
				}
				if b.Cmp(in) != 0 {
					t.Fatal("LiftFixed mutated its base")
				}
				if fb.HasTable() != odd {
					t.Fatalf("bits=%d odd=%v: table attached = %v", bits, odd, fb.HasTable())
				}
			}
		}
	}
}

// TestLiftFixedFallbacks pins which calls leave the comb: an exponent
// wider than the declared width must not build a table, and a released
// base must neither use nor rebuild one — with the same value either way.
func TestLiftFixedFallbacks(t *testing.T) {
	rnd := mrand.New(mrand.NewSource(22))
	h := hasherFor(t, testModulus(rnd, 512, true))
	p, err := pregenPrime(rnd, 512)
	if err != nil {
		t.Fatal(err)
	}
	wide := p.Mul(p)
	v := h.Embed([]byte("fallbacks"))

	fb := NewFixedBase(v, 512)
	if got := h.LiftFixed(fb, wide); got.Cmp(h.Lift(v, wide)) != 0 {
		t.Fatal("wide exponent: value differs")
	}
	if fb.HasTable() {
		t.Fatal("an exponent the table cannot serve built one")
	}
	want := h.Lift(v, p)
	if got := h.LiftFixed(fb, p); got.Cmp(want) != 0 || !fb.HasTable() {
		t.Fatalf("prime exponent: value ok = %v, table = %v", got.Cmp(want) == 0, fb.HasTable())
	}
	fb.Release()
	if got := h.LiftFixed(fb, p); got.Cmp(want) != 0 {
		t.Fatal("released base: value differs")
	}
	if fb.HasTable() {
		t.Fatal("a lift after Release rebuilt the table")
	}

	// A base tabulated under one modulus and lifted under another is a
	// caller bug; it must still produce the right residue.
	other := hasherFor(t, testModulus(rnd, 512, true))
	fb = NewFixedBase(v, 512)
	h.LiftFixed(fb, p)
	if got := other.LiftFixed(fb, p); got.Cmp(other.Lift(v, p)) != 0 {
		t.Fatal("foreign table was used")
	}
}

// TestLiftFixedAccounting: the comb changes how a lift is executed, not
// what is counted — one hash-op per call on every path.
func TestLiftFixedAccounting(t *testing.T) {
	rnd := mrand.New(mrand.NewSource(23))
	p, err := ParamsFromModulus(testModulus(rnd, 128, true))
	if err != nil {
		t.Fatal(err)
	}
	var ops Counter
	h := NewHasher(p, &ops)
	key, err := pregenPrime(rnd, 128)
	if err != nil {
		t.Fatal(err)
	}
	fb := NewFixedBase(h.Embed([]byte("accounting")), 128)
	h.LiftFixed(fb, key)          // builds
	h.LiftFixed(fb, key)          // comb
	h.LiftFixed(fb, key.Mul(key)) // too wide: generic
	fb.Release()
	h.LiftFixed(fb, key) // released: generic
	if got := ops.HashOps(); got != 4 {
		t.Fatalf("4 lifts counted as %d hash-ops", got)
	}
}

// TestCombDigitCache alternates two primes (and two table widths) on one
// hasher: the cached recoding must never be served for another exponent.
func TestCombDigitCache(t *testing.T) {
	rnd := mrand.New(mrand.NewSource(24))
	m := testModulus(rnd, 512, true)
	h := hasherFor(t, m)
	p1, _ := pregenPrime(rnd, 512)
	p2, _ := pregenPrime(rnd, 512)
	short, _ := pregenPrime(rnd, 200)
	var bases []*FixedBase
	for i := 0; i < 4; i++ {
		bases = append(bases, NewFixedBase(new(big.Int).Rand(rnd, m), 512))
	}
	narrow := NewFixedBase(new(big.Int).Rand(rnd, m), 200)
	for round := 0; round < 3; round++ {
		for _, key := range []Key{p1, p2, p1, short, p2} {
			for _, fb := range bases {
				want := new(big.Int).Exp(fb.v, key.e, m)
				if got := h.LiftFixed(fb, key); got.Cmp(want) != 0 {
					t.Fatalf("round %d: wrong value under alternating primes", round)
				}
			}
			// Same exponent, different digit count: a cache keyed on the
			// exponent alone would hand back the 512-bit recoding.
			want := new(big.Int).Exp(narrow.v, short.e, m)
			if got := h.LiftFixed(narrow, short); got.Cmp(want) != 0 {
				t.Fatalf("round %d: wrong value on the narrow table", round)
			}
		}
	}
}

// TestLiftFixedAllocations: like Lift, a comb lift allocates its result
// (the big.Int and its limbs) and nothing else, at every kernel width.
func TestLiftFixedAllocations(t *testing.T) {
	rnd := mrand.New(mrand.NewSource(25))
	for _, bits := range []int{128, 256, 512} {
		h := hasherFor(t, testModulus(rnd, bits, true))
		key, err := pregenPrime(rnd, bits)
		if err != nil {
			t.Fatal(err)
		}
		fb := NewFixedBase(h.Embed([]byte("allocation gate")), bits)
		h.LiftFixed(fb, key) // builds the engine and the table
		if n := testing.AllocsPerRun(100, func() { h.LiftFixed(fb, key) }); n > 2 {
			t.Errorf("bits=%d: LiftFixed allocates %.0f objects, want <= 2", bits, n)
		}
	}
}

// TestFixedBaseSharedAcrossHashers is the sharded engine's first-publish
// race: N goroutines, each with its own Hasher over the same modulus,
// lift the same fresh bases at once — some build, one publishes, all use —
// while another goroutine releases them. Run under -race.
func TestFixedBaseSharedAcrossHashers(t *testing.T) {
	rnd := mrand.New(mrand.NewSource(26))
	m := testModulus(rnd, 128, true)
	params, err := ParamsFromModulus(m)
	if err != nil {
		t.Fatal(err)
	}
	const workers, nbases = 8, 16
	var bases []*FixedBase
	for i := 0; i < nbases; i++ {
		bases = append(bases, NewFixedBase(new(big.Int).Rand(rnd, m), 128))
	}
	keys := make([]Key, workers)
	want := make([][]*big.Int, workers)
	for w := range keys {
		if keys[w], err = pregenPrime(rnd, 128); err != nil {
			t.Fatal(err)
		}
		for _, fb := range bases {
			want[w] = append(want[w], new(big.Int).Exp(fb.v, keys[w].e, m))
		}
	}

	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := NewHasher(params, nil)
			<-start
			for pass := 0; pass < 4; pass++ {
				for i, fb := range bases {
					if got := h.LiftFixed(fb, keys[w]); got.Cmp(want[w][i]) != 0 {
						t.Errorf("worker %d base %d pass %d: wrong value", w, i, pass)
						return
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for _, fb := range bases[:nbases/2] {
			fb.Release()
		}
	}()
	close(start)
	wg.Wait()

	h := NewHasher(params, nil)
	for i, fb := range bases {
		if released := i < nbases/2; fb.HasTable() == released {
			t.Errorf("base %d: released = %v but table attached = %v", i, released, fb.HasTable())
		}
		if got := h.LiftFixed(fb, keys[0]); got.Cmp(want[0][i]) != 0 {
			t.Errorf("base %d: wrong value after the race", i)
		}
	}
}

func FuzzLiftFixedMatchesBig(f *testing.F) {
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, []byte{0xff}, []byte{0x01}, uint16(128))
	f.Add([]byte{0x80, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x01}, []byte{0x02}, []byte{0x01, 0x00, 0x01}, uint16(17))
	f.Add([]byte{0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01}, []byte{0x00}, []byte{0xff, 0xff}, uint16(16))
	f.Add([]byte{0xc5}, []byte{0xc4}, []byte{0x07}, uint16(3))
	f.Add([]byte{0xde, 0xad, 0xbe, 0xee}, []byte{0xde, 0xad, 0xbe, 0xef, 0x01}, []byte{0x10}, uint16(4))                                     // even modulus
	f.Add(bytes.Repeat([]byte{0xff}, 64), bytes.Repeat([]byte{0xfe}, 64), bytes.Repeat([]byte{0xff}, 64), uint16(512))                       // k=8, every digit 31
	f.Add(bytes.Repeat([]byte{0x9d}, 65), bytes.Repeat([]byte{0x77}, 70), append([]byte{0x80}, bytes.Repeat([]byte{0}, 63)...), uint16(512)) // k=9, base >= M, top bit only
	f.Add(bytes.Repeat([]byte{0xab}, 16), bytes.Repeat([]byte{0x11}, 16), bytes.Repeat([]byte{0xab}, 24), uint16(128))                       // wider than declared
	f.Fuzz(func(t *testing.T, mod, base, exp []byte, expBits uint16) {
		if len(mod) > 160 || len(exp) > 200 || len(base) > 400 || expBits > 2048 {
			t.Skip()
		}
		m := new(big.Int).SetBytes(mod)
		e := new(big.Int).SetBytes(exp)
		if m.Cmp(_two) <= 0 || e.Sign() == 0 {
			t.Skip()
		}
		b := new(big.Int).SetBytes(base)
		h := hasherFor(t, m)
		fb := NewFixedBase(b, int(expBits))
		want := new(big.Int).Exp(b, e, m)
		// Twice: the first call builds the table, the second reuses it
		// and the cached digits.
		for pass := 0; pass < 2; pass++ {
			if got := h.LiftFixed(fb, Key{e: e}); got.Cmp(want) != 0 {
				t.Fatalf("pass %d: %x^%x mod %x (expBits %d) = %x, want %x", pass, b, e, m, expBits, got, want)
			}
		}
	})
}

func BenchmarkLiftFixed(b *testing.B) {
	for _, bits := range []int{128, 256, 512} {
		rnd := mrand.New(mrand.NewSource(42))
		params, err := GenerateParams(rnd, bits)
		if err != nil {
			b.Fatal(err)
		}
		h := NewHasher(params, nil)
		key, err := GeneratePrimeKey(rnd, bits)
		if err != nil {
			b.Fatal(err)
		}
		v := h.Embed([]byte("the update payload under benchmark"))
		b.Run(fmt.Sprintf("lift/bits=%d", bits), func(b *testing.B) {
			fb := NewFixedBase(v, bits)
			h.LiftFixed(fb, key)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.LiftFixed(fb, key)
			}
		})
		b.Run(fmt.Sprintf("build/bits=%d", bits), func(b *testing.B) {
			mc := h.montEngine()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mc.buildComb(v, bits)
			}
		})
	}
}
