package hhash

import (
	"math/big"
	mrand "math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// kernelWidths are the limb counts with an assembly kernel.
var kernelWidths = []int{8}

// kernelModuli returns the k-limb moduli the kernel tests run over: the
// all-ones modulus (every reduction limb at its maximum, and the one that
// sets limb k+1 of the accumulator), the smallest with the top bit set, an
// all-ones top limb, a one-bit top limb, and random ones with full and
// partial top limbs.
func kernelModuli(rnd *mrand.Rand, k int) []*big.Int {
	full := uint(k * _W)
	allOnes := new(big.Int).Sub(new(big.Int).Lsh(_one, full), _one)
	topOnes := new(big.Int).Rand(rnd, new(big.Int).Lsh(_one, full-_W))
	topOnes.Or(topOnes, new(big.Int).Lsh(allOnes, full-_W)) // spills past bit `full`:
	topOnes.And(topOnes, allOnes).SetBit(topOnes, 0, 1)     // cut back to k limbs, made odd
	ms := []*big.Int{
		allOnes,
		new(big.Int).Add(new(big.Int).Lsh(_one, full-1), _one),
		topOnes,
		testModulus(rnd, k*_W-_W+1),
	}
	for i := 0; i < 6; i++ {
		ms = append(ms, testModulus(rnd, k*_W-i%3))
	}
	return ms
}

// checkKernel holds one product to its definition and to the generic
// loop, under every aliasing of dst, a and b the engine uses. The
// destination sits between two guard limbs.
func checkKernel(t *testing.T, c *montCtx, rinv, a, b *big.Int) {
	t.Helper()
	k := c.k
	want := new(big.Int).Mul(a, b)
	want.Mul(want, rinv).Mod(want, c.mod)
	wantLimbs := c.limbsOf(want)

	const guard = 0xA5A5A5A5
	buf := make([]uint, k+2)
	run := func(shape string, f func(dst []uint)) {
		t.Helper()
		buf[0], buf[k+1] = guard, guard
		dst := buf[1 : k+1]
		f(dst)
		if buf[0] != guard || buf[k+1] != guard {
			t.Fatalf("k=%d %s: wrote outside dst", k, shape)
		}
		for i := range dst {
			if dst[i] != wantLimbs[i] {
				t.Fatalf("k=%d %s: m=%x a=%x b=%x: got %x, want %x", k, shape, c.mod, a, b, dst, wantLimbs)
			}
		}
	}
	al, bl := c.limbsOf(a), c.limbsOf(b)
	run("generic", func(dst []uint) { c.mulGeneric(dst, al, bl) })
	run("mul", func(dst []uint) { c.mul(dst, al, bl) })
	run("dst==a", func(dst []uint) { copy(dst, al); c.mul(dst, dst, bl) })
	run("dst==b", func(dst []uint) { copy(dst, bl); c.mul(dst, al, dst) })
	if a.Cmp(b) == 0 {
		run("a==b", func(dst []uint) { c.mul(dst, al, al) })
		run("sqr", func(dst []uint) { c.sqr(dst, al) })
		run("dst==a==b", func(dst []uint) { copy(dst, al); c.mul(dst, dst, dst) })
		run("sqr in place", func(dst []uint) { copy(dst, al); c.sqr(dst, dst) })
	}
	if al[0] != uint(a.Uint64()) || bl[0] != uint(b.Uint64()) {
		t.Fatalf("k=%d: an operand was written", k)
	}
}

// TestKernelsMatchBig is the differential test of the assembly kernels:
// a·b·R⁻¹ mod m against math/big and against the generic loop, over the
// carry-heavy moduli and operands and every aliasing. Without ADX it
// checks the generic loop against math/big alone.
func TestKernelsMatchBig(t *testing.T) {
	rnd := mrand.New(mrand.NewSource(27))
	for _, k := range kernelWidths {
		for _, m := range kernelModuli(rnd, k) {
			c := newMontCtx(m)
			if c == nil || c.k != k {
				t.Fatalf("k=%d: bad context for %x", k, m)
			}
			rinv := new(big.Int).ModInverse(new(big.Int).Lsh(_one, uint(k*_W)), m)
			vals := []*big.Int{
				new(big.Int), big.NewInt(1), big.NewInt(2),
				new(big.Int).Sub(m, _one), new(big.Int).Sub(m, _two),
				c.toInt(c.one), c.toInt(c.rr),
				new(big.Int).Rsh(m, 1), // top limb half full, low limbs carry-heavy
			}
			for i := 0; i < 24; i++ {
				vals = append(vals, new(big.Int).Rand(rnd, m))
			}
			for _, a := range vals {
				for _, b := range vals {
					checkKernel(t, c, rinv, a, b)
				}
			}
		}
	}
}

// FuzzKernels feeds the kernels raw limbs: the first 8k bytes of mod make
// a k-limb odd modulus with a non-zero top limb, a and b are reduced into
// range.
func FuzzKernels(f *testing.F) {
	ff := strings.Repeat("\xff", 64)
	f.Add([]byte(ff), []byte(ff[:63]+"\xfe"), []byte(ff[:63]+"\xfe"))
	f.Add([]byte("\x80"+strings.Repeat("\x00", 62)+"\x01"), []byte(ff), []byte{2})
	f.Add([]byte(ff[:8]+strings.Repeat("\x5a", 56)), []byte(strings.Repeat("\xc3", 64)), []byte(strings.Repeat("\x3c", 64)))
	f.Add([]byte{1}, []byte{}, []byte{1})
	f.Fuzz(func(t *testing.T, mod, a, b []byte) {
		for _, k := range kernelWidths {
			raw := make([]byte, k*_W/8)
			copy(raw, mod)
			m := new(big.Int).SetBytes(raw)
			m.SetBit(m, 0, 1)
			if m.BitLen() <= (k-1)*_W {
				m.SetBit(m, (k-1)*_W, 1)
			}
			c := newMontCtx(m)
			if c == nil || c.k != k {
				t.Fatalf("k=%d: bad context for %x", k, m)
			}
			rinv := new(big.Int).ModInverse(new(big.Int).Lsh(_one, uint(k*_W)), m)
			av := new(big.Int).SetBytes(a)
			bv := new(big.Int).SetBytes(b)
			av.Mod(av, m)
			bv.Mod(bv, m)
			checkKernel(t, c, rinv, av, bv)
			checkKernel(t, c, rinv, av, av)
		}
	})
}

// TestKernelAllocations: no kernel, assembly or Go, allocates — the
// assembly ones must not make their operands escape either.
func TestKernelAllocations(t *testing.T) {
	rnd := mrand.New(mrand.NewSource(28))
	for _, k := range []int{2, 4, 8} {
		c := newMontCtx(testModulus(rnd, k*_W))
		a := c.limbsOf(new(big.Int).Rand(rnd, c.mod))
		if n := testing.AllocsPerRun(100, func() {
			var dst [8]uint // stays on the stack only if the kernels do not leak it
			c.mul(dst[:k], a, a)
			c.sqr(dst[:k], dst[:k])
		}); n != 0 {
			t.Errorf("k=%d: mul+sqr allocate %.0f objects", k, n)
		}
	}
}

// TestDispatchMatchesCPU: the CPUID probe agrees with the kernel's view of
// the processor, so a broken probe cannot silently leave an ADX machine on
// the portable kernels (every other test would still pass).
func TestDispatchMatchesCPU(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		if useADX {
			t.Fatal("assembly kernels selected off amd64")
		}
		return
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip("no /proc/cpuinfo to compare against")
	}
	var flags []string
	for _, line := range strings.Split(string(info), "\n") {
		if strings.HasPrefix(line, "flags") {
			flags = strings.Fields(line)
			break
		}
	}
	adx, bmi2 := slices.Contains(flags, "adx"), slices.Contains(flags, "bmi2")
	if useADX != (adx && bmi2) {
		t.Fatalf("useADX = %v, /proc/cpuinfo says adx=%v bmi2=%v", useADX, adx, bmi2)
	}
}

// TestPortableKernels re-runs the engine's differential and allocation
// tests — ladder, multi-exponentiation, batch verification, prime
// search — with the assembly kernels switched off. (The long final-check
// sweep, TestFinalCheckMatchesProbablyPrime, takes both verdicts in its
// one pass instead.)
func TestPortableKernels(t *testing.T) {
	if !useADX {
		t.Skip("this CPU runs the portable kernels already")
	}
	for _, tc := range []struct {
		name string
		test func(*testing.T)
	}{
		{"KernelsMatchBig", TestKernelsMatchBig},
		{"SqrMatchesMul", TestSqrMatchesMul},
		{"LiftMatchesBig", TestLiftMatchesBig},
		{"CombineMatchesBig", TestCombineMatchesBig},
		{"ModExpInPlaceAndZero", TestModExpInPlaceAndZero},
		{"LiftAllocations", TestLiftAllocations},
		{"MultiExpMatchesNaive", TestMultiExpMatchesNaive},
		{"VerifyForwardingMatchesNaive", TestVerifyForwardingMatchesNaive},
		{"VerifyBatchAcceptIffEachAccepts", TestVerifyBatchAcceptIffEachAccepts},
		{"VerifyBatchFallbacks", TestVerifyBatchFallbacks},
		{"PrimeSearchMatchesReference", TestPrimeSearchMatchesReference},
		{"StrongBase2Pseudoprimes", TestStrongBase2Pseudoprimes},
		{"FinalCheckPseudoprimes", TestFinalCheckPseudoprimes},
	} {
		portableKernels(func() { t.Run(tc.name, tc.test) })
	}
}
