package hhash

import (
	"fmt"
	"math/big"
	mrand "math/rand"
	"testing"
)

// TestFoldMatchesHashSet: folding a multiset with Mul and lifting it with
// LiftFold gives HashSet's value and charges HashSet's hash-ops, at every
// modulus width a session runs; FoldValue is the product math/big computes,
// a fold built from two halves with MulFold equals the whole, and Recharge
// charges the count-powers once more.
func TestFoldMatchesHashSet(t *testing.T) {
	rnd := mrand.New(mrand.NewSource(29))
	for _, bits := range []int{128, 512} {
		for _, size := range []int{0, 1, 7, 40} {
			t.Run(fmt.Sprintf("bits=%d/items=%d", bits, size), func(t *testing.T) {
				params := Params{m: testModulus(rnd, bits)}
				var ops Counter
				h := NewHasher(params, &ops)
				key, err := pregenPrime(rnd, bits)
				if err != nil {
					t.Fatal(err)
				}
				items := make([][]byte, size)
				counts := make([]uint64, size)
				want := big.NewInt(1)
				for i := range items {
					items[i] = make([]byte, 24+rnd.Intn(40))
					rnd.Read(items[i])
					counts[i] = 1 + uint64(rnd.Intn(15))
					want.Mul(want, new(big.Int).Exp(h.Embed(items[i]), new(big.Int).SetUint64(counts[i]), params.m))
					want.Mod(want, params.m)
				}

				ops.Reset()
				wantH, err := h.HashSet(key, items, counts)
				if err != nil {
					t.Fatal(err)
				}
				wantOps := ops.HashOps()

				ops.Reset()
				var all, lo, hi Fold
				for i, it := range items {
					h.Mul(&all, h.Embed(it), counts[i])
				}
				if got := h.LiftFold(new(big.Int), key, &all); got.Cmp(wantH) != 0 {
					t.Fatalf("LiftFold = %v, HashSet = %v", got, wantH)
				}
				if got := ops.HashOps(); got != wantOps {
					t.Fatalf("the fold charged %d hash-ops, HashSet %d", got, wantOps)
				}
				if got := h.FoldValue(new(big.Int), &all); got.Cmp(want) != 0 {
					t.Fatalf("FoldValue = %v, want %v", got, want)
				}

				h.ops = nil // the halves are bookkeeping, not protocol work
				for i, it := range items {
					half := &lo
					if i%2 == 1 {
						half = &hi
					}
					h.Mul(half, h.Embed(it), counts[i])
				}
				h.ops = &ops
				var joined Fold
				h.MulFold(&joined, &lo)
				h.MulFold(&joined, &hi)
				if got := h.LiftFold(new(big.Int), key, &lo, &hi); got.Cmp(wantH) != 0 {
					t.Fatal("LiftFold of two halves differs from the whole")
				}
				if got := h.FoldValue(new(big.Int), &joined); got.Cmp(want) != 0 {
					t.Fatal("MulFold of two halves differs from the whole")
				}

				ops.Reset()
				h.Recharge(&joined)
				if got := ops.HashOps(); got != wantOps-1 {
					t.Fatalf("Recharge charged %d hash-ops, want the %d count-powers", got, wantOps-1)
				}

				all.Reset()
				if got := h.FoldValue(new(big.Int), &all); got.Cmp(_one) != 0 {
					t.Fatalf("a reset fold holds %v, want 1", got)
				}
			})
		}
	}
}

// TestFoldMulAllocations: folding a factor in allocates nothing once the
// fold holds a value, whatever its count.
func TestFoldMulAllocations(t *testing.T) {
	rnd := mrand.New(mrand.NewSource(31))
	for _, bits := range []int{128, 512} {
		h := hasherFor(t, testModulus(rnd, bits))
		v := h.Embed([]byte("allocation gate"))
		var f Fold
		h.Mul(&f, v, 1)
		for _, c := range []uint64{1, 2, 15, 1 << 32} {
			if n := testing.AllocsPerRun(100, func() { h.Mul(&f, v, c) }); n != 0 {
				t.Errorf("bits=%d: Mul with count %d allocates %.0f objects", bits, c, n)
			}
		}
	}
}
