package analytic

import (
	"math"
	"testing"

	"repro/internal/model"
)

func pag(kbps, n int) float64 {
	return PAGPerNodeKbps(Params{PayloadKbps: kbps, N: n})
}

func act(kbps, n int) float64 {
	return ActingPerNodeKbps(Params{PayloadKbps: kbps, N: n})
}

// TestFig7Shape: at the paper's operating point (300 kbps, f=3) PAG costs
// a small multiple of AcTinG, and both exceed the raw stream rate. Paper:
// 1050 vs 460 kbps (ratio ≈ 2.3).
func TestFig7Shape(t *testing.T) {
	p, a := pag(300, 1000), act(300, 1000)
	if a <= 300 {
		t.Fatalf("AcTinG %v kbps below stream rate", a)
	}
	if p <= a {
		t.Fatalf("PAG (%v) not costlier than AcTinG (%v)", p, a)
	}
	if ratio := p / a; ratio < 1.5 || ratio > 5 {
		t.Fatalf("PAG/AcTinG ratio %v outside the paper's band", ratio)
	}
	// Within a factor ~2 of the paper's absolute numbers.
	if p < 500 || p > 2100 {
		t.Fatalf("PAG at 300kbps = %v kbps, paper ≈ 1050", p)
	}
	if a < 230 || a > 950 {
		t.Fatalf("AcTinG at 300kbps = %v kbps, paper ≈ 460", a)
	}
}

// TestFig9Scalability: bandwidth grows with N only through f = ⌈log10 N⌉ —
// logarithmic growth, roughly matching the paper's 1M-node endpoints
// (PAG 2.5 Mbps, AcTinG 840 kbps for a 300 kbps stream).
func TestFig9Scalability(t *testing.T) {
	sizes := []int{1000, 10000, 100000, 1000000}
	prevP, prevA := 0.0, 0.0
	for _, n := range sizes {
		p, a := pag(300, n), act(300, n)
		if p < prevP || a < prevA {
			t.Fatalf("bandwidth decreased with N at %d", n)
		}
		prevP, prevA = p, a
	}
	// Million-node endpoint within a factor ~2 of the paper.
	p1m := pag(300, 1000000)
	if p1m < 1200 || p1m > 5000 {
		t.Fatalf("PAG at 1M nodes = %v kbps, paper ≈ 2500", p1m)
	}
	// Logarithmic: ×1000 nodes costs at most ×3.
	if ratio := p1m / pag(300, 1000); ratio > 3 {
		t.Fatalf("growth factor %v for 1000x nodes — not logarithmic", ratio)
	}
}

// TestFig8UpdateSizeShape: bigger updates amortise the hash/ref overhead,
// so PAG's bandwidth decreases with update size (Fig 8).
func TestFig8UpdateSizeShape(t *testing.T) {
	prev := 0.0
	for i, size := range []int{1000, 10000, 50000, 100000} {
		bw := PAGPerNodeKbps(Params{PayloadKbps: 300, N: 1000, UpdateBytes: size})
		if i > 0 && bw >= prev {
			t.Fatalf("bandwidth did not decrease at update size %d: %v >= %v",
				size, bw, prev)
		}
		prev = bw
	}
	// And it stays above the stream rate.
	if prev <= 300 {
		t.Fatalf("bandwidth %v fell below the stream rate", prev)
	}
}

// TestRACLinearAndHopeless: RAC is linear in N and cannot sustain even the
// minimum streaming quality on a 1 Gbps link (Table II's ∅ column).
func TestRACLinearAndHopeless(t *testing.T) {
	r1, r2 := RACPerNodeKbps(300, 1000), RACPerNodeKbps(300, 2000)
	if ratio := r2 / r1; ratio < 1.9 || ratio > 2.1 {
		t.Fatalf("RAC not linear in N: ratio %v", ratio)
	}
	if RACPerNodeKbps(model.Quality144p.PayloadKbps(), 1000) < 1e6 {
		t.Fatal("RAC at 144p should exceed 1 Gbps")
	}
	// Paper: max payload on 10 Gbps ≈ 63 kbps. Our calibration must put
	// the sustainable payload in the tens of kbps.
	tenGbps := 10e6 // kbps
	maxPayload := 0
	for p := 1; p <= 300; p++ {
		if RACPerNodeKbps(p, 1000) <= tenGbps {
			maxPayload = p
		}
	}
	if maxPayload < 10 || maxPayload > 200 {
		t.Fatalf("RAC max payload on 10Gbps = %d kbps, paper ≈ 63", maxPayload)
	}
}

// TestTable2Shape reproduces Table II's qualitative content.
func TestTable2Shape(t *testing.T) {
	pagModel := func(kbps int) float64 {
		return PAGPerNodeKbps(Params{PayloadKbps: kbps, N: 1000})
	}
	actModel := func(kbps int) float64 {
		return ActingPerNodeKbps(Params{PayloadKbps: kbps, N: 1000})
	}
	racModel := func(kbps int) float64 { return RACPerNodeKbps(kbps, 1000) }

	type row struct{ capacity float64 }
	capacities := []row{{1500}, {10000}, {100000}, {1e6}, {10e6}}

	var prevPAG model.Quality
	for i, c := range capacities {
		qp, bwP, okP := MaxSustainableQuality(pagModel, c.capacity)
		qa, bwA, okA := MaxSustainableQuality(actModel, c.capacity)
		_, _, okR := MaxSustainableQuality(racModel, c.capacity)

		// ADSL upwards: PAG and AcTinG sustain something, RAC never
		// reaches 144p below 10 Gbps (and per the paper, not even
		// there: its 63 kbps max is under the 80 kbps floor).
		if !okP || !okA {
			t.Fatalf("capacity %v: PAG/AcTinG sustain nothing", c.capacity)
		}
		if okR {
			t.Fatalf("capacity %v: RAC sustains %v — should be ∅", c.capacity, qp)
		}
		// AcTinG always sustains at least PAG's quality.
		if qa < qp {
			t.Fatalf("capacity %v: AcTinG (%v) below PAG (%v)", c.capacity, qa, qp)
		}
		// Used bandwidth must fit the link.
		if bwP > c.capacity || bwA > c.capacity {
			t.Fatal("used bandwidth exceeds capacity")
		}
		// PAG's quality is non-decreasing in capacity and tops out.
		if i > 0 && qp < prevPAG {
			t.Fatalf("PAG quality regressed at capacity %v", c.capacity)
		}
		prevPAG = qp
	}
	// At 100 Mbps and above both reach 1080p (paper's right columns).
	q, _, _ := MaxSustainableQuality(pagModel, 100000)
	if q != model.Quality1080p {
		t.Fatalf("PAG at 100Mbps = %v, want 1080p", q)
	}
}

// TestTable1Shape: signatures constant across qualities; hashes scale with
// the update rate, near the paper's absolute band.
func TestTable1Shape(t *testing.T) {
	sigs := SignaturesPerSec(3, 3)
	if sigs < 20 || sigs > 45 {
		t.Fatalf("signatures/s = %v, paper = 33", sigs)
	}
	prev := 0.0
	for _, q := range model.Qualities() {
		h := HashesPerSec(q.PayloadKbps(), 3)
		if h <= prev {
			t.Fatalf("hashes/s not increasing at %v", q)
		}
		prev = h
	}
	// 240p (300 kbps): paper reports 475 hashes/s.
	h240 := HashesPerSec(300, 3)
	if h240 < 300 || h240 > 900 {
		t.Fatalf("hashes/s at 240p = %v, paper = 475", h240)
	}
	// 1080p: paper reports 7200.
	h1080 := HashesPerSec(4500, 3)
	if h1080 < 4500 || h1080 > 14000 {
		t.Fatalf("hashes/s at 1080p = %v, paper = 7200", h1080)
	}
}

func TestDefaultsApplied(t *testing.T) {
	p := Params{PayloadKbps: 300, N: 432}
	d := p.withDefaults()
	if d.UpdateBytes != model.UpdateBytes || d.Fanout != 3 ||
		d.Monitors != 3 || d.TTLRounds != 7 {
		t.Fatalf("defaults: %+v", d)
	}
	if d.Wire != DefaultWire() {
		t.Fatal("wire defaults missing")
	}
}

// TestDisseminationBounds: tiny systems and huge saturation times keep the
// dissemination terms finite and non-negative, every update is received
// once, and the slots keep the extra copies to a few per cent.
func TestDisseminationBounds(t *testing.T) {
	for _, p := range []Params{
		{PayloadKbps: 300, N: 1, Fanout: 1},
		{PayloadKbps: 300, N: 1 << 30, Fanout: 2},
		{PayloadKbps: 300, N: 12},
		{PayloadKbps: 300, N: 432},
		{PayloadKbps: 300, N: 1000000},
	} {
		d := p.withDefaults().disseminate()
		for name, v := range map[string]float64{"payloads": d.payloads, "refs": d.refs, "tags": d.tags} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("%+v: %s = %v", p, name, v)
			}
		}
		if p.N >= 12 && p.N <= 1000000 && (d.payloads < 0.9 || d.payloads > 1.08) {
			t.Fatalf("%+v: %.3f payload copies per update, want one and a few per cent", p, d.payloads)
		}
	}
}
