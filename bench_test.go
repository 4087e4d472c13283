package pag

// One benchmark per table and figure of the paper's evaluation (§VII),
// plus micro- and ablation benchmarks for the design choices DESIGN.md
// calls out. The figures' quantities are attached as custom benchmark
// metrics (kbps/node, hashes/s, ...), so `go test -bench=. -benchmem`
// regenerates the numbers PAPER.md's section map cites; cmd/pag-experiments
// prints the full tables.

import (
	"testing"

	"repro/internal/analytic"
	"repro/internal/coalition"
	"repro/internal/core"
	"repro/internal/hhash"
	"repro/internal/model"
)

// benchSession runs one measured session and returns mean per-node kbps.
func benchSession(b *testing.B, protocol Protocol, nodes, kbps, updateBytes int) float64 {
	b.Helper()
	cfg := SessionConfig{
		Nodes:       nodes,
		Protocol:    protocol,
		StreamKbps:  kbps,
		UpdateBytes: updateBytes,
		ModulusBits: 128,
		Seed:        9,
	}
	s, err := NewSession(cfg)
	if err != nil {
		b.Fatal(err)
	}
	s.Run(4)
	s.StartMeasuring()
	s.Run(8)
	if c := s.MeanContinuity(); c < 0.9 {
		b.Fatalf("%v continuity %v", protocol, c)
	}
	return s.BandwidthSample().Mean()
}

// BenchmarkFig7BandwidthCDF regenerates Fig 7's comparison: per-node
// bandwidth of PAG vs AcTinG under the same stream.
func BenchmarkFig7BandwidthCDF(b *testing.B) {
	var pagBW, actBW float64
	for i := 0; i < b.N; i++ {
		pagBW = benchSession(b, ProtocolPAG, 24, 120, 938)
		actBW = benchSession(b, ProtocolAcTinG, 24, 120, 938)
	}
	b.ReportMetric(pagBW, "PAG-kbps/node")
	b.ReportMetric(actBW, "AcTinG-kbps/node")
	b.ReportMetric(pagBW/actBW, "ratio")
}

// BenchmarkFig8UpdateSize regenerates Fig 8: PAG bandwidth vs update size.
func BenchmarkFig8UpdateSize(b *testing.B) {
	for _, size := range []int{1000, 10000} {
		b.Run(model.UpdateID{Seq: uint64(size)}.String(), func(b *testing.B) {
			var bw float64
			for i := 0; i < b.N; i++ {
				bw = benchSession(b, ProtocolPAG, 16, 120, size)
			}
			b.ReportMetric(bw, "kbps/node")
			b.ReportMetric(analytic.PAGPerNodeKbps(analytic.Params{
				PayloadKbps: 300, UpdateBytes: size, N: 1000,
			}), "model-kbps/node")
		})
	}
}

// BenchmarkFig9Scalability regenerates Fig 9: simulated small sizes plus
// the analytic curve to a million nodes.
func BenchmarkFig9Scalability(b *testing.B) {
	for _, n := range []int{16, 32} {
		n := n
		b.Run(model.NodeID(n).String(), func(b *testing.B) {
			var bw float64
			for i := 0; i < b.N; i++ {
				bw = benchSession(b, ProtocolPAG, n, 120, 938)
			}
			b.ReportMetric(bw, "kbps/node")
		})
	}
	b.Run("analytic-1M", func(b *testing.B) {
		var bw float64
		for i := 0; i < b.N; i++ {
			bw = analytic.PAGPerNodeKbps(analytic.Params{PayloadKbps: 300, N: 1000000})
		}
		b.ReportMetric(bw, "kbps/node")
	})
}

// BenchmarkFig10Coalitions regenerates Fig 10's Monte-Carlo sweep.
func BenchmarkFig10Coalitions(b *testing.B) {
	fracs := []float64{0.1, 0.3, 0.5}
	var pts []coalition.Point
	for i := 0; i < b.N; i++ {
		pts = coalition.Sweep(coalition.Config{
			Fanout: 3, Monitors: 3, Trials: 20000, Seed: 4,
		}, fracs)
	}
	b.ReportMetric(pts[0].PAG*100, "PAG-discovered-pct@10")
	b.ReportMetric(pts[0].AcTinG*100, "AcTinG-discovered-pct@10")
	b.ReportMetric(pts[0].Minimum*100, "minimum-pct@10")
}

// BenchmarkTable1CryptoCosts regenerates Table I: per-node signature and
// homomorphic-hash rates under a live session.
func BenchmarkTable1CryptoCosts(b *testing.B) {
	var hashes, sigs float64
	for i := 0; i < b.N; i++ {
		s, err := NewSession(SessionConfig{
			Nodes: 16, Protocol: ProtocolPAG, StreamKbps: 120,
			UpdateBytes: 938, ModulusBits: 128, Seed: 9,
		})
		if err != nil {
			b.Fatal(err)
		}
		const rounds = 8
		s.Run(rounds)
		var h, g, n float64
		for id, st := range s.PAGNodeStats() {
			if id == SourceID {
				continue
			}
			h += float64(st.HashOps)
			g += float64(st.SigOps)
			n++
		}
		hashes, sigs = h/n/rounds, g/n/rounds
	}
	b.ReportMetric(sigs, "signatures/s")
	b.ReportMetric(hashes, "hashes/s")
	b.ReportMetric(analytic.SignaturesPerSec(3, 3), "model-signatures/s")
	b.ReportMetric(analytic.HashesPerSec(300, 0, 0, 3), "model-hashes/s@240p")
}

// BenchmarkTable2QualityCapacity regenerates Table II from the analytic
// models (capacity sweep × quality ladder).
func BenchmarkTable2QualityCapacity(b *testing.B) {
	var pagQ, actQ model.Quality
	for i := 0; i < b.N; i++ {
		pagQ, _, _ = analytic.MaxSustainableQuality(func(kbps int) float64 {
			return analytic.PAGPerNodeKbps(analytic.Params{PayloadKbps: kbps, N: 1000})
		}, 10000)
		actQ, _, _ = analytic.MaxSustainableQuality(func(kbps int) float64 {
			return analytic.ActingPerNodeKbps(analytic.Params{PayloadKbps: kbps, N: 1000})
		}, 10000)
	}
	b.ReportMetric(float64(pagQ), "PAG-quality@10Mbps")
	b.ReportMetric(float64(actQ), "AcTinG-quality@10Mbps")
}

// ---------------------------------------------------------------------------
// Micro- and ablation benchmarks
// ---------------------------------------------------------------------------

// BenchmarkHomomorphicHash512 measures the paper's §VII-C claim (openssl:
// 4800 hashes/s/core at a 512-bit modulus).
func BenchmarkHomomorphicHash512(b *testing.B) {
	params, err := hhash.GenerateParams(nil, 512)
	if err != nil {
		b.Fatal(err)
	}
	key, err := hhash.GeneratePrimeKey(nil, 512)
	if err != nil {
		b.Fatal(err)
	}
	h := hhash.NewHasher(params, nil)
	data := make([]byte, model.UpdateBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Hash(key, data)
	}
}

// BenchmarkHomomorphicHash256 is the §VII-C cheaper-modulus ablation.
func BenchmarkHomomorphicHash256(b *testing.B) {
	params, err := hhash.GenerateParams(nil, 256)
	if err != nil {
		b.Fatal(err)
	}
	key, err := hhash.GeneratePrimeKey(nil, 256)
	if err != nil {
		b.Fatal(err)
	}
	h := hhash.NewHasher(params, nil)
	data := make([]byte, model.UpdateBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Hash(key, data)
	}
}

// BenchmarkPAGRound measures one full protocol round wall-clock at small
// scale (all 4 phases, message delivery included).
func BenchmarkPAGRound(b *testing.B) {
	s, err := NewSession(SessionConfig{
		Nodes: 16, Protocol: ProtocolPAG, StreamKbps: 120,
		UpdateBytes: 938, ModulusBits: 128, Seed: 9,
	})
	if err != nil {
		b.Fatal(err)
	}
	s.Run(4) // warm-up into steady state
	b.ResetTimer()
	s.Run(b.N)
}

// BenchmarkAblationBuffermap quantifies §V-D's buffermap: bandwidth with
// and without the ownership hints.
func BenchmarkAblationBuffermap(b *testing.B) {
	run := func(window int) float64 {
		cfg := SessionConfig{
			Nodes: 16, Protocol: ProtocolPAG, StreamKbps: 120,
			UpdateBytes: 938, ModulusBits: 128, Seed: 9,
			BuffermapWindow: window,
		}
		s, err := NewSession(cfg)
		if err != nil {
			b.Fatal(err)
		}
		s.Run(3)
		s.StartMeasuring()
		s.Run(6)
		return s.BandwidthSample().Mean()
	}
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = run(0)     // default window
		without = run(-1) // disabled
	}
	b.ReportMetric(with, "with-kbps/node")
	b.ReportMetric(without, "without-kbps/node")
}

// BenchmarkAblationMonitors quantifies the monitor-count knob of Fig 10's
// bandwidth remark ("Increasing the number of monitors does not
// significantly increase the bandwidth cost").
func BenchmarkAblationMonitors(b *testing.B) {
	run := func(monitors int) float64 {
		s, err := NewSession(SessionConfig{
			Nodes: 20, Protocol: ProtocolPAG, StreamKbps: 120,
			UpdateBytes: 938, ModulusBits: 128, Seed: 9,
			Monitors: monitors,
		})
		if err != nil {
			b.Fatal(err)
		}
		s.Run(3)
		s.StartMeasuring()
		s.Run(6)
		return s.BandwidthSample().Mean()
	}
	var m3, m5 float64
	for i := 0; i < b.N; i++ {
		m3 = run(3)
		m5 = run(5)
	}
	b.ReportMetric(m3, "3mon-kbps/node")
	b.ReportMetric(m5, "5mon-kbps/node")
	b.ReportMetric(m5/m3, "ratio")
}

// BenchmarkSelfishDetectionLatency measures rounds-to-conviction for the
// drop-updates deviation (the accountability guarantee's reaction time).
func BenchmarkSelfishDetectionLatency(b *testing.B) {
	var latency float64
	for i := 0; i < b.N; i++ {
		cfg := SessionConfig{
			Nodes: 16, Protocol: ProtocolPAG, StreamKbps: 120,
			UpdateBytes: 938, ModulusBits: 128, Seed: 9,
			PAGBehaviors: map[model.NodeID]core.Behavior{5: {DropUpdates: 1}},
		}
		s, err := NewSession(cfg)
		if err != nil {
			b.Fatal(err)
		}
		latency = 0
		for r := 1; r <= 12 && latency == 0; r++ {
			s.Run(1)
			for _, v := range s.PAGVerdicts() {
				if v.Accused == 5 {
					latency = float64(r)
					break
				}
			}
		}
		if latency == 0 {
			b.Fatal("cheat not detected within 12 rounds")
		}
	}
	b.ReportMetric(latency, "rounds-to-conviction")
}
