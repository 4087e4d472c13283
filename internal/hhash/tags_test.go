package hhash

import (
	"crypto/sha256"
	"encoding/binary"
	"math/big"
	mrand "math/rand"
	"sync"
	"testing"

	"repro/internal/obs"
)

// referenceTag is the documented tag layout, written out:
// the first 8 bytes of SHA-256("PAG buffermap tag v1" ‖ prime ‖ embedding),
// both numbers big-endian at the modulus width (the prime wider if it is).
func referenceTag(p Params, prime, embed *big.Int) uint64 {
	w := p.ValueLen()
	pw := max(w, len(prime.Bytes()))
	in := []byte("PAG buffermap tag v1")
	in = append(in, prime.FillBytes(make([]byte, pw))...)
	in = append(in, embed.FillBytes(make([]byte, w))...)
	sum := sha256.Sum256(in)
	return binary.BigEndian.Uint64(sum[:8])
}

// randomEmbeds draws n residues mod m, with 1 (the embedding of a zero
// residue) first.
func randomEmbeds(rnd *mrand.Rand, m *big.Int, n int) []*big.Int {
	out := []*big.Int{big.NewInt(1)}
	for len(out) < n {
		out = append(out, new(big.Int).Rand(rnd, m))
	}
	return out[:n]
}

// TestTagsMatchReference: every tag is the documented SHA-256 layout, two
// hashers over one modulus agree, a batch's tags change with the prime,
// and a 119-tag batch — the mean buffermap batch at the paper's sizes —
// allocates nothing.
func TestTagsMatchReference(t *testing.T) {
	rnd := mrand.New(mrand.NewSource(27))
	for _, bits := range []int{24, 128, 512, 1088} {
		m := testModulus(rnd, bits)
		p, err := ParamsFromModulus(m)
		if err != nil {
			t.Fatal(err)
		}
		h, other := NewHasher(p, nil), NewHasher(p, nil)
		keys := make([]Key, 2)
		for i := range keys {
			if keys[i], err = pregenPrime(rnd, max(bits, 16)); err != nil {
				t.Fatal(err)
			}
		}
		wide, err := pregenPrime(rnd, bits+64) // wider than the modulus
		if err != nil {
			t.Fatal(err)
		}
		embeds := randomEmbeds(rnd, m, 119)
		got, again := make([]uint64, len(embeds)), make([]uint64, len(embeds))
		for _, key := range append(keys, wide) {
			h.Tags(got, embeds, key)
			other.Tags(again, embeds, key)
			for i, v := range embeds {
				if want := referenceTag(p, key.e, v); got[i] != want || again[i] != want {
					t.Fatalf("bits=%d tag %d: %#x and %#x, want %#x", bits, i, got[i], again[i], want)
				}
			}
		}
		h.Tags(got, embeds, keys[0])
		other.Tags(again, embeds, keys[1])
		for i := range got {
			if got[i] == again[i] {
				t.Fatalf("bits=%d tag %d is %#x under two primes", bits, i, got[i])
			}
		}
		if bits == 512 {
			if n := testing.AllocsPerRun(50, func() { h.Tags(got, embeds, keys[0]) }); n != 0 {
				t.Errorf("a batch of %d tags allocates %.0f objects, want 0", len(embeds), n)
			}
		}
	}
}

// TestTagsAccounting: a batch counts one hash-op per tag, as the paper
// counts a buffermap lift, and opens no lift span.
func TestTagsAccounting(t *testing.T) {
	rnd := mrand.New(mrand.NewSource(28))
	m := testModulus(rnd, 512)
	p, err := ParamsFromModulus(m)
	if err != nil {
		t.Fatal(err)
	}
	key, err := pregenPrime(rnd, 512)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 119} {
		var ops Counter
		h := NewHasher(p, &ops)
		spans := obs.NewRegistry().Histogram("lift_seconds", obs.ClassTimed)
		h.Instrument(spans)
		h.Tags(make([]uint64, n), randomEmbeds(rnd, m, n), key)
		if ops.HashOps() != uint64(n) || spans.Count() != 0 {
			t.Errorf("%d tags counted as %d hash-ops and %d lift spans", n, ops.HashOps(), spans.Count())
		}
	}
}

// TestTagsAllocations: once a hasher's scratch has grown, a batch
// allocates nothing at any width, for one tag or many.
func TestTagsAllocations(t *testing.T) {
	rnd := mrand.New(mrand.NewSource(29))
	for _, bits := range []int{128, 256, 512} {
		m := testModulus(rnd, bits)
		h := hasherFor(t, m)
		key, err := pregenPrime(rnd, bits)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 64} {
			embeds := randomEmbeds(rnd, m, n)
			dst := make([]uint64, n)
			h.Tags(dst, embeds, key) // grows the scratch
			if a := testing.AllocsPerRun(50, func() { h.Tags(dst, embeds, key) }); a != 0 {
				t.Errorf("bits=%d: a batch of %d tags allocates %.0f objects, want 0", bits, n, a)
			}
		}
	}
}

// TestTagsSharedAcrossHashers: node hashers tag the session's shared
// embeddings at once on the sharded engine; Tags only reads them. Run
// under -race.
func TestTagsSharedAcrossHashers(t *testing.T) {
	rnd := mrand.New(mrand.NewSource(30))
	m := testModulus(rnd, 512)
	params, err := ParamsFromModulus(m)
	if err != nil {
		t.Fatal(err)
	}
	embeds := randomEmbeds(rnd, m, 64)
	const hashers = 4
	keys := make([]Key, hashers)
	want := make([][]uint64, hashers)
	for w := range keys {
		if keys[w], err = pregenPrime(rnd, 512); err != nil {
			t.Fatal(err)
		}
		for _, v := range embeds {
			want[w] = append(want[w], referenceTag(params, keys[w].e, v))
		}
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < hashers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := NewHasher(params, nil)
			dst := make([]uint64, len(embeds))
			<-start
			for pass := 0; pass < 3; pass++ {
				h.Tags(dst, embeds, keys[w])
				for i := range dst {
					if dst[i] != want[w][i] {
						t.Errorf("hasher %d pass %d: tag %d wrong", w, pass, i)
						return
					}
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
}
