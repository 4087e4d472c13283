// Package experiments regenerates every table and figure of the paper's
// evaluation (§VII). Each runner returns a Result whose Text holds the
// same rows/series the paper reports; cmd/pag-experiments prints them and
// PAPER.md's section map records paper-vs-measured.
//
// Simulated numbers come from full protocol runs over the in-memory
// network (byte-exact wire accounting); where the paper itself computed
// rather than simulated (Fig 9 beyond feasible sizes, Table II's capacity
// sweep), the analytic models of internal/analytic take over.
package experiments

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"repro/internal/analytic"
	"repro/internal/coalition"
	"repro/internal/dolevyao"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/wire"

	pag "repro"
)

// Result is one regenerated table or figure.
type Result struct {
	ID    string
	Title string
	Text  string
}

// Options tunes experiment scale. Zero values select the defaults noted
// per field; Quick shrinks everything for smoke tests and benchmarks.
type Options struct {
	// Nodes is the simulated system size (default 48; the paper's
	// deployment used 432 — pass -nodes 432 for the full run).
	Nodes int
	// WarmupRounds / MeasureRounds bound the simulated session.
	WarmupRounds  int
	MeasureRounds int
	// StreamKbps is the source rate (default 300, the paper's setting).
	StreamKbps int
	// ModulusBits sizes the homomorphic hash (default 512; Quick uses
	// 128 — wire sizes shrink, so absolute kbps drop slightly).
	ModulusBits int
	// Quick selects the fast profile.
	Quick bool
	// Seed fixes all randomness.
	Seed uint64
	// Workers steps the round engine (see pag.SessionConfig.Workers): 0
	// or 1 inline, n > 1 sharded across n workers, n < 0 across
	// GOMAXPROCS. Results are byte-identical at every setting.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.Nodes == 0 {
		if o.Quick {
			o.Nodes = 24
		} else {
			o.Nodes = 48
		}
	}
	if o.WarmupRounds == 0 {
		o.WarmupRounds = 5
	}
	if o.MeasureRounds == 0 {
		if o.Quick {
			o.MeasureRounds = 10
		} else {
			o.MeasureRounds = 20
		}
	}
	if o.StreamKbps == 0 {
		if o.Quick {
			o.StreamKbps = 60
		} else {
			o.StreamKbps = 300
		}
	}
	if o.ModulusBits == 0 {
		if o.Quick {
			o.ModulusBits = 128
		} else {
			o.ModulusBits = 512
		}
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// runSession measures one protocol's per-node bandwidth distribution.
func runSession(o Options, protocol pag.Protocol) (*pag.Session, error) {
	s, _, err := runSessionByKind(o, protocol, nil)
	return s, err
}

// received is what the PAG nodes of a session took in over its measured
// rounds, read off the metrics registry.
type received struct {
	// byKind is bytes per node per round by wire kind.
	byKind map[string]float64
	// payloadCopies is payloads per first reception: 1 when every update
	// crossed a link into each node once.
	payloadCopies float64
}

// runSessionByKind is runSession with a metrics registry attached (when reg
// is non-nil): it also returns what the PAG nodes received over the
// measured rounds.
func runSessionByKind(o Options, protocol pag.Protocol, reg *obs.Registry) (*pag.Session, received, error) {
	s, err := pag.NewSession(pag.SessionConfig{
		Nodes:       o.Nodes,
		Protocol:    protocol,
		StreamKbps:  o.StreamKbps,
		ModulusBits: o.ModulusBits,
		Seed:        o.Seed,
		Workers:     o.Workers,
		Obs:         reg,
	})
	if err != nil {
		return nil, received{}, err
	}
	s.Run(o.WarmupRounds)
	s.StartMeasuring()
	m0 := s.Metrics()
	before := m0.ByLabel("pag_core_bytes_total", "kind")
	s.Run(o.MeasureRounds)
	m1 := s.Metrics()
	byKind := m1.ByLabel("pag_core_bytes_total", "kind")
	for kind, b := range byKind {
		byKind[kind] = (b - before[kind]) / float64(o.Nodes*o.MeasureRounds)
	}
	payloads := m1.ByLabel("pag_core_serve_items_total", "form")["payload"] -
		m0.ByLabel("pag_core_serve_items_total", "form")["payload"]
	duplicates := m1.Total("pag_core_duplicate_payloads_total") - m0.Total("pag_core_duplicate_payloads_total")
	got := received{byKind: byKind}
	if payloads > duplicates {
		got.payloadCopies = payloads / (payloads - duplicates)
	}
	return s, got, nil
}

// Fig7 regenerates the bandwidth-consumption CDF of PAG vs AcTinG
// (300 kbps stream, 3 monitors).
func Fig7(opt Options) (Result, error) {
	o := opt.withDefaults()
	pagSess, pagGot, err := runSessionByKind(o, pag.ProtocolPAG, obs.NewRegistry())
	if err != nil {
		return Result{}, fmt.Errorf("experiments: fig7 PAG: %w", err)
	}
	actSess, err := runSession(o, pag.ProtocolAcTinG)
	if err != nil {
		return Result{}, fmt.Errorf("experiments: fig7 AcTinG: %w", err)
	}
	pagBW := pagSess.BandwidthSample()
	actBW := actSess.BandwidthSample()

	var b strings.Builder
	fmt.Fprintf(&b, "Fig 7 — per-node bandwidth CDF, %d kbps stream, %d nodes, 3 monitors\n",
		o.StreamKbps, o.Nodes)
	fmt.Fprintf(&b, "paper (432 nodes, 300 kbps): AcTinG mean 460 kbps, PAG mean 1050 kbps\n\n")
	fmt.Fprintf(&b, "%-8s %-14s %-14s\n", "CDF(%)", "AcTinG(kbps)", "PAG(kbps)")
	for _, pct := range []float64{10, 25, 50, 75, 90, 99} {
		fmt.Fprintf(&b, "%-8.0f %-14.0f %-14.0f\n",
			pct, actBW.Percentile(pct), pagBW.Percentile(pct))
	}
	fmt.Fprintf(&b, "\nmeans: AcTinG %.0f kbps, PAG %.0f kbps (ratio %.2f; paper 2.3)\n",
		actBW.Mean(), pagBW.Mean(), pagBW.Mean()/actBW.Mean())
	fmt.Fprintf(&b, "continuity: AcTinG %.3f, PAG %.3f\n",
		actSess.MeanContinuity(), pagSess.MeanContinuity())

	// Where PAG's bytes go: what a node receives per round of each wire
	// kind (pag_core_bytes_total), so a change to one message shows up in
	// its own row.
	total := 0.0
	for _, v := range pagGot.byKind {
		total += v
	}
	fmt.Fprintf(&b, "\nPAG bytes received per node per round, by wire kind\n")
	fmt.Fprintf(&b, "%-20s %-12s %-8s %-8s\n", "kind", "B/node/round", "kbps", "share(%)")
	for k := wire.KindKeyRequest; k <= wire.KindAckExhibit; k++ {
		if v := pagGot.byKind[wire.KindName(k)]; v > 0 {
			fmt.Fprintf(&b, "%-20s %-12.0f %-8.1f %-8.1f\n", wire.KindName(k), v,
				v*8/1000/model.RoundDurationSeconds, 100*v/total)
		}
	}
	fmt.Fprintf(&b, "%-20s %-12.0f %-8.1f\n", "all kinds", total, total*8/1000/model.RoundDurationSeconds)
	fmt.Fprintf(&b, "payload copies per first reception: %.3f\n", pagGot.payloadCopies)
	return Result{ID: "fig7", Title: "Bandwidth consumption CDF (PAG vs AcTinG)", Text: b.String()}, nil
}

// Fig8 regenerates PAG bandwidth as a function of update size
// (300 kbps stream): simulation at small sizes, the analytic model across
// the full 1–100 kb sweep.
func Fig8(opt Options) (Result, error) {
	o := opt.withDefaults()
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 8 — PAG bandwidth vs update size, %d kbps stream\n", o.StreamKbps)
	fmt.Fprintf(&b, "paper: decreasing curve ~1.9 Mbps at 1 kb to well under 1 Mbps at 100 kb\n\n")
	fmt.Fprintf(&b, "%-16s %-16s %-16s\n", "update size(B)", "sim(kbps)", "model(kbps)")

	simSizes := map[int]bool{1000: true, 10000: true}
	if o.Quick {
		simSizes = map[int]bool{1000: true}
	}
	for _, size := range []int{1000, 5000, 10000, 25000, 50000, 100000} {
		simVal := "-"
		if simSizes[size] {
			s, err := pag.NewSession(pag.SessionConfig{
				Nodes:       o.Nodes,
				Protocol:    pag.ProtocolPAG,
				StreamKbps:  o.StreamKbps,
				UpdateBytes: size,
				ModulusBits: o.ModulusBits,
				Seed:        o.Seed,
				Workers:     o.Workers,
			})
			if err != nil {
				return Result{}, fmt.Errorf("experiments: fig8 size %d: %w", size, err)
			}
			s.Run(o.WarmupRounds)
			s.StartMeasuring()
			s.Run(o.MeasureRounds)
			simVal = fmt.Sprintf("%.0f", s.BandwidthSample().Mean())
		}
		m := analytic.PAGPerNodeKbps(analytic.Params{
			PayloadKbps: o.StreamKbps,
			UpdateBytes: size,
			N:           1000,
			Wire:        analytic.WireFor(o.ModulusBits),
		})
		fmt.Fprintf(&b, "%-16d %-16s %-16.0f\n", size, simVal, m)
	}
	return Result{ID: "fig8", Title: "Bandwidth vs update size", Text: b.String()}, nil
}

// Fig9 regenerates the scalability curve: simulation at feasible sizes,
// the analytic model up to a million nodes (as the paper did), then the
// curve measured on one box: full-fidelity sessions to N=16384, and the
// per-node cost at the fanouts of N=10^3…10^6 from small sessions forced
// to that fanout and forwarding TTL.
func Fig9(opt Options) (Result, error) {
	o := opt.withDefaults()
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 9 — scalability with a %d kbps stream\n", o.StreamKbps)
	fmt.Fprintf(&b, "paper at 10^6 nodes: PAG 2.5 Mbps, AcTinG 840 kbps\n\n")
	fmt.Fprintf(&b, "%-12s %-10s %-16s %-16s %-16s %-16s\n",
		"nodes", "fanout", "PAG sim", "PAG model", "AcTinG sim", "AcTinG model")

	simSizes := []int{24, 48}
	if o.Quick {
		simSizes = []int{16}
	}
	for _, n := range simSizes {
		oo := o
		oo.Nodes = n
		pagSess, err := runSession(oo, pag.ProtocolPAG)
		if err != nil {
			return Result{}, fmt.Errorf("experiments: fig9 N=%d: %w", n, err)
		}
		actSess, err := runSession(oo, pag.ProtocolAcTinG)
		if err != nil {
			return Result{}, fmt.Errorf("experiments: fig9 N=%d: %w", n, err)
		}
		fmt.Fprintf(&b, "%-12d %-10d %-16.0f %-16.0f %-16.0f %-16.0f\n",
			n, model.FanoutFor(n),
			pagSess.BandwidthSample().Mean(),
			analytic.PAGPerNodeKbps(analytic.Params{PayloadKbps: o.StreamKbps, N: n,
				Wire: analytic.WireFor(o.ModulusBits)}),
			actSess.BandwidthSample().Mean(),
			analytic.ActingPerNodeKbps(analytic.Params{PayloadKbps: o.StreamKbps, N: n}))
	}
	for _, n := range []int{1000, 10000, 100000, 1000000} {
		fmt.Fprintf(&b, "%-12d %-10d %-16s %-16.0f %-16s %-16.0f\n",
			n, model.FanoutFor(n), "-",
			analytic.PAGPerNodeKbps(analytic.Params{PayloadKbps: o.StreamKbps, N: n}),
			"-",
			analytic.ActingPerNodeKbps(analytic.Params{PayloadKbps: o.StreamKbps, N: n}))
	}

	fmt.Fprintf(&b, "\nmeasured on one box, PAG at %d kbps with a %d-bit hash (fixed: the only setting\n"+
		"ever measured; 512 bits at N=16384 does not fit one box); B/node is post-GC live\n"+
		"heap over the session's nodes\n", fig9Kbps, fig9ModulusBits)
	fmt.Fprintf(&b, "%-8s %-10s %-14s %-14s %-10s %-10s %s\n",
		"nodes", "mode", "measured kbps", "analytic kbps", "B/node", "rounds/s", "continuity")
	full, forced := []int{1296, 4096, 16384}, []int{3, 4, 5, 6}
	if o.Quick {
		full, forced = []int{128}, []int{3, 4}
	}
	for _, n := range full {
		row, err := fig9Measured(o, n, n, model.FanoutFor(n))
		if err != nil {
			return Result{}, fmt.Errorf("experiments: fig9 measured N=%d: %w", n, err)
		}
		fmt.Fprintf(&b, "%-8d %-10s %s\n", n, "full", row)
	}
	// A node's cost depends on N only through f, f_m and the forwarding
	// TTL, so a small session forced to the fanout and TTL of N prices a
	// node of N (TestForcedFanoutPricesLargeN checks the premise).
	fmt.Fprintf(&b, "\nper-node cost at fanout f (N = 10^k): %d-node sessions with Fanout = Monitors = f\n"+
		"and TTL = ForwardingTTL(N, f), priced against the model at N\n", fig9ForcedNodes)
	fmt.Fprintf(&b, "%-8s %-10s %-14s %-14s %-10s %-10s %s\n",
		"fanout", "N", "measured kbps", "analytic kbps", "B/node", "rounds/s", "continuity")
	for _, f := range forced {
		n := int(math.Pow10(f))
		row, err := fig9Measured(o, fig9ForcedNodes, n, f)
		if err != nil {
			return Result{}, fmt.Errorf("experiments: fig9 measured f=%d: %w", f, err)
		}
		fmt.Fprintf(&b, "%-8d 10^%-7d %s\n", f, f, row)
	}
	return Result{ID: "fig9", Title: "Scalability (bandwidth vs N)", Text: b.String()}, nil
}

// The measured Fig 9 sweep's settings. The warm-up clears the playout
// delay (model.PlayoutDelayRounds = 10) before the window opens. A full
// round at N=16384 costs tens of seconds, so the full window is short; a
// forced row's round is cheap, so its window is wider.
const (
	fig9Kbps         = 60
	fig9ModulusBits  = 128
	fig9ForcedNodes  = 64
	fig9Warmup       = 12
	fig9FullRounds   = 3
	fig9ForcedRounds = 6
)

// fig9Measured runs one measured row of Fig 9, a session of nodes members at
// fanout f and the forwarding TTL of an n-node system (a forced row when
// nodes < n, measured over the wider window), and formats it: the measured
// per-node bandwidth (source excluded) against the analytic prediction for
// n at f, the live heap per session node, the measured rounds/s and
// continuity.
func fig9Measured(o Options, nodes, n, f int) (string, error) {
	ttl := model.ForwardingTTL(n, f)
	rounds := fig9FullRounds
	if nodes < n {
		rounds = fig9ForcedRounds
	}
	base := liveHeap()
	s, err := pag.NewSession(pag.SessionConfig{Nodes: nodes, Fanout: f, Monitors: f, TTL: ttl,
		StreamKbps: fig9Kbps, ModulusBits: fig9ModulusBits, Seed: o.Seed, Workers: o.Workers})
	if err != nil {
		return "", err
	}
	s.Run(fig9Warmup)
	s.StartMeasuring()
	start := time.Now()
	s.Run(rounds)
	perSec := float64(rounds) / time.Since(start).Seconds()
	perNode := float64(liveHeap()-base) / float64(nodes)
	predicted := analytic.PAGPerNodeKbps(analytic.Params{PayloadKbps: fig9Kbps, N: n, Fanout: f,
		Monitors: f, TTLRounds: int(ttl), Wire: analytic.WireFor(fig9ModulusBits)})
	return fmt.Sprintf("%-14.1f %-14.1f %-10.0f %-10.3f %.4f",
		s.BandwidthSample().Mean(), predicted, perNode, perSec, s.MeanContinuity()), nil
}

// liveHeap returns the heap that survives a full collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// Fig10 regenerates the coalition study: proportion of interactions
// discovered vs attacker fraction.
func Fig10(opt Options) (Result, error) {
	o := opt.withDefaults()
	trials := 100000
	if o.Quick {
		trials = 20000
	}
	fracs := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1}
	pag3 := coalition.Sweep(coalition.Config{Fanout: 3, Monitors: 3, Trials: trials, Seed: int64(o.Seed)}, fracs)
	pag5 := coalition.Sweep(coalition.Config{Fanout: 5, Monitors: 5, Trials: trials, Seed: int64(o.Seed) + 1}, fracs)

	var b strings.Builder
	b.WriteString("Fig 10 — interactions discovered by a global/active coalition\n")
	b.WriteString("paper: AcTinG fully discovered at ~10% attackers; PAG near the minimum, 5 monitors closer than 3\n\n")
	fmt.Fprintf(&b, "%-14s %-12s %-12s %-12s %-12s\n",
		"attackers(%)", "AcTinG(%)", "PAG-3(%)", "PAG-5(%)", "minimum(%)")
	for i, p := range pag3 {
		fmt.Fprintf(&b, "%-14.0f %-12.1f %-12.1f %-12.1f %-12.1f\n",
			p.AttackerFraction*100, p.AcTinG*100, p.PAG*100,
			pag5[i].PAG*100, p.Minimum*100)
	}
	return Result{ID: "fig10", Title: "Coalition resilience", Text: b.String()}, nil
}

// Table1 regenerates the crypto-cost table: RSA signatures and
// homomorphic hashes per second per video quality, with measured rates
// from a live simulation at the 240p operating point.
func Table1(opt Options) (Result, error) {
	o := opt.withDefaults()
	sess, err := runSession(o, pag.ProtocolPAG)
	if err != nil {
		return Result{}, fmt.Errorf("experiments: table1: %w", err)
	}
	var hashOps, sigOps, nodes float64
	for id, st := range sess.PAGNodeStats() {
		if id == pag.SourceID {
			continue
		}
		hashOps += float64(st.HashOps)
		sigOps += float64(st.SigOps)
		nodes++
	}
	seconds := float64(o.WarmupRounds + o.MeasureRounds)
	measuredHashes := hashOps / nodes / seconds
	measuredSigs := sigOps / nodes / seconds

	var b strings.Builder
	b.WriteString("Table I — RSA signatures and homomorphic hashes per second (1000 nodes, f=3)\n")
	b.WriteString("paper row 'RSA signatures': 33 at every quality\n")
	b.WriteString("paper row 'Hashes': 133 / 475 / 1170 / 1560 / 3934 / 7200\n\n")
	fmt.Fprintf(&b, "%-10s %-14s %-14s %-14s\n", "quality", "payload(kbps)", "signatures/s", "hashes/s")
	for _, q := range model.Qualities() {
		fmt.Fprintf(&b, "%-10s %-14d %-14.0f %-14.0f\n",
			q.String(), q.PayloadKbps(),
			analytic.SignaturesPerSec(3, 3),
			analytic.HashesPerSec(q.PayloadKbps(), 3))
	}
	fmt.Fprintf(&b, "\nmeasured in the %d kbps simulation: %.0f signatures/s, %.0f hashes/s per node\n",
		o.StreamKbps, measuredSigs, measuredHashes)
	b.WriteString("(buffermap hashes are counted as the paper counts them, one per entry, but this build\n" +
		"computes them as keyed SHA-256 tags, not modular lifts)\n")
	return Result{ID: "table1", Title: "Cryptographic costs per video quality", Text: b.String()}, nil
}

// cliffScenario builds the capacity-cliff sweep sized for the options:
// population-wide queued upload caps stepping down across the Table II
// regime, one measurement epoch per capacity level.
func cliffScenario(o Options) scenario.Scenario {
	phase := o.MeasureRounds / len(scenario.CliffRatios)
	if phase < 2 {
		phase = 2
	}
	sc := scenario.CapacityCliff(o.StreamKbps, o.WarmupRounds, phase)
	sc.Seed = o.Seed
	return sc
}

// cliffCaps maps each epoch start round of a capacity-cliff run to the
// cap (kbps) that opened it; the warmup epoch maps to 0 (uncapped).
func cliffCaps(sc scenario.Scenario) map[model.Round]int {
	caps := make(map[model.Round]int)
	for _, e := range sc.Events {
		if e.Action == scenario.ActionSetQueueCap {
			caps[e.Round] = e.CapKbps
		}
	}
	return caps
}

// runCliffReport runs the capacity-cliff sweep for the given protocols —
// the single sweep-execution path shared by Cliff and Table2's measured
// footer, so the two cannot drift apart on configuration.
func runCliffReport(o Options, protocols []pag.Protocol) (pag.ScenarioReport, map[model.Round]int, error) {
	sc := cliffScenario(o)
	report, err := pag.RunScenarioReport(pag.SessionConfig{
		Nodes:       o.Nodes,
		StreamKbps:  o.StreamKbps,
		ModulusBits: o.ModulusBits,
		Seed:        o.Seed,
		Workers:     o.Workers,
	}, sc, protocols, 1)
	return report, cliffCaps(sc), err
}

// Cliff measures the Table II continuity cliff instead of computing it:
// the capacity-cliff scenario sweeps a population-wide queued upload cap
// down toward the stream rate, and the per-epoch report shows continuity
// degrading — and the link queues' deferral/expiry counters exploding —
// as the cap crosses each protocol's overhead ratio. This is the
// measurement the drop-based cap model could not make: a drop cap looks
// like a lossy network, a queued cap shows *late* bytes first (deferral),
// then *useless* bytes (expiry past the playout window), which is how a
// constrained uplink actually fails.
func Cliff(opt Options) (Result, error) {
	o := opt.withDefaults()
	protocols := []pag.Protocol{pag.ProtocolPAG, pag.ProtocolAcTinG}
	if o.Quick {
		protocols = []pag.Protocol{pag.ProtocolPAG}
	}
	report, caps, err := runCliffReport(o, protocols)
	if err != nil {
		return Result{}, fmt.Errorf("experiments: cliff: %w", err)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Cliff — measured continuity vs link capacity (%d nodes, %d kbps stream)\n",
		o.Nodes, o.StreamKbps)
	b.WriteString("Table II asks which stream a link sustains; here the link model answers by measurement:\n")
	b.WriteString("deferred = bytes delayed by the cap, expired = bytes dead in the queue past the playout window\n")
	for _, p := range report.Protocols {
		fmt.Fprintf(&b, "\nprotocol %s (whole-run continuity %.3f, %d deferred, %d expired):\n",
			p.Protocol, p.MeanContinuity, p.MessagesDeferred, p.MessagesExpired)
		fmt.Fprintf(&b, "%-12s %-10s %-12s %-14s %-12s %-10s %-10s\n",
			"cap(kbps)", "x-stream", "rounds", "continuity", "bw(kbps)", "deferred", "expired")
		for _, e := range p.Epochs {
			cap, capped := caps[e.StartRound]
			// The warmup epoch's continuity is structurally ~0 (no chunk
			// deadline falls due inside it), which would read as "an
			// uncapped link delivers nothing"; print it as not-measured.
			label, ratio, cont := "∞ (warmup)", "-", "-"
			if capped {
				label = fmt.Sprintf("%d", cap)
				ratio = fmt.Sprintf("%.2f", float64(cap)/float64(o.StreamKbps))
				cont = fmt.Sprintf("%.3f", e.MeanContinuity)
			}
			fmt.Fprintf(&b, "%-12s %-10s %-12s %-14s %-12.0f %-10d %-10d\n",
				label, ratio, fmt.Sprintf("%v-%v", e.StartRound, e.EndRound),
				cont, e.MeanBandwidthKbps, e.Deferred, e.Expired)
		}
	}
	b.WriteString("\npaper (Table II): PAG sustains 144p on 1.5 Mbps, 480p on 10 Mbps; RAC sustains nothing —\n")
	b.WriteString("the measured cliff appears where cap/stream falls under the protocol's overhead ratio\n")
	return Result{ID: "cliff", Title: "Measured continuity cliff vs link capacity", Text: b.String()}, nil
}

// racModelLabel heads Table II's RAC column. The paper does not run RAC
// either: it takes RAC's cost from the RAC paper, and so does
// analytic.RACPerNodeKbps.
const racModelLabel = "RAC (model, calibrated to RAC §VII-B)"

// Table2 regenerates the sustainable-quality table across link capacities
// — the analytic halves as in the paper, plus a measured footer: a PAG
// run under the capacity-cliff scenario reports actual continuity and
// link-queue pressure as the cap approaches the stream rate, which the
// paper's purely analytic table could only assert.
func Table2(opt Options) (Result, error) {
	pagModel := func(kbps int) float64 {
		return analytic.PAGPerNodeKbps(analytic.Params{PayloadKbps: kbps, N: 1000})
	}
	actModel := func(kbps int) float64 {
		return analytic.ActingPerNodeKbps(analytic.Params{PayloadKbps: kbps, N: 1000})
	}
	racModel := func(kbps int) float64 { return analytic.RACPerNodeKbps(kbps, 1000) }

	type link struct {
		name     string
		capacity float64 // kbps
	}
	links := []link{
		{"1.5Mbps (ADSL Lite)", 1500},
		{"10Mbps (Ethernet)", 10000},
		{"100Mbps (Fast Ethernet)", 100000},
		{"1Gbps (Gigabit)", 1e6},
		{"10Gbps (10 Gigabit)", 10e6},
	}
	cell := func(m func(int) float64, capacity float64) string {
		q, bw, ok := analytic.MaxSustainableQuality(m, capacity)
		if !ok {
			return "∅"
		}
		return fmt.Sprintf("%s (%.1f Mbps)", q, bw/1000)
	}
	var b strings.Builder
	b.WriteString("Table II — max sustainable video quality vs link capacity (1000 nodes)\n")
	b.WriteString("paper: PAG 144p@1.5M / 480p@10M / 1080p@100M+; AcTinG 480p@1.5M / 1080p@10M+; RAC ∅ everywhere\n\n")
	fmt.Fprintf(&b, "%-26s %-22s %-22s %s\n", "link", "PAG", "AcTinG", racModelLabel)
	for _, l := range links {
		fmt.Fprintf(&b, "%-26s %-22s %-22s %-6s\n",
			l.name, cell(pagModel, l.capacity), cell(actModel, l.capacity),
			cell(racModel, l.capacity))
	}
	b.WriteString("\nprivacy: PAG ✓, AcTinG ✗, RAC ✓ — accountability: all ✓\n")

	// Measured footer: the analytic table says a link sustains a stream
	// when capacity exceeds the protocol's per-node demand; the queued
	// link model lets us watch that threshold instead of computing it.
	// The footer is a probe, not the full sweep (-exp cliff): the system
	// size is capped so `-exp all` does not pay for the sweep twice.
	o := opt.withDefaults()
	if o.Nodes > 24 {
		o.Nodes = 24
	}
	report, caps, err := runCliffReport(o, []pag.Protocol{pag.ProtocolPAG})
	if err != nil {
		return Result{}, fmt.Errorf("experiments: table2 measured sweep: %w", err)
	}
	run := report.Protocols[0]
	fmt.Fprintf(&b, "\nmeasured (capacity-cliff, PAG, %d nodes, %d kbps stream): continuity per cap level\n",
		o.Nodes, o.StreamKbps)
	fmt.Fprintf(&b, "%-12s %-10s %-14s %-10s %-10s\n",
		"cap(kbps)", "x-stream", "continuity", "deferred", "expired")
	for _, e := range run.Epochs {
		cap, capped := caps[e.StartRound]
		if !capped {
			continue // warmup epoch: uncapped
		}
		fmt.Fprintf(&b, "%-12d %-10.2f %-14.3f %-10d %-10d\n",
			cap, float64(cap)/float64(o.StreamKbps), e.MeanContinuity, e.Deferred, e.Expired)
	}
	b.WriteString("see -exp cliff for the full sweep across protocols\n")
	return Result{ID: "table2", Title: "Sustainable quality vs link capacity", Text: b.String()}, nil
}

// ChurnStudy compares PAG and AcTinG under scripted churn — the
// paper's dynamic-membership assumption (§III) exercised for real: 20%
// steady turnover with crashes, one membership epoch per transition. It
// reports per-protocol continuity, bandwidth and convictions, and the
// per-epoch slices proving the metrics survive epoch boundaries.
//
// Conviction semantics under crashes: an undetected crashed node is
// observationally a refusal to participate, so verdicts against it (and
// bounded transient noise against its exchange partners while the failure
// lingers — a dead designated monitor breaks the report chain for its
// exchanges) are expected. What must hold is the separation the
// punishment threshold relies on: honest live nodes accumulate at most a
// handful of transient verdicts per nearby crash, while persistent
// deviators accrue them every round — so at a threshold of a few fanouts
// the convicted set contains no honest live node.
func ChurnStudy(opt Options) (Result, error) {
	o := opt.withDefaults()
	rounds := o.WarmupRounds + o.MeasureRounds
	// 0.25 is exact in binary, so the uniform credit accumulator fires
	// dependably even over the short quick-profile window.
	rate := 0.2
	if o.Quick {
		rate = 0.25
	}
	sc := scenario.SteadyChurn(rate, 0.25, o.WarmupRounds, rounds)
	sc.Seed = o.Seed

	// Linger-scaled threshold: transient noise from one undetected crash
	// is bounded by ~fanout verdicts per affected exchange per linger
	// round, while a persistent deviator accrues ~fanout² per round for
	// the rest of the run.
	threshold := 2 * model.FanoutFor(o.Nodes) * (sc.Churn.CrashLingerRounds + 2)
	report, err := pag.RunScenarioReport(pag.SessionConfig{
		Nodes:       o.Nodes,
		StreamKbps:  o.StreamKbps,
		ModulusBits: o.ModulusBits,
		Seed:        o.Seed,
		Workers:     o.Workers,
	}, sc, nil, threshold)
	if err != nil {
		return Result{}, fmt.Errorf("experiments: churn study: %w", err)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Churn study — %s (%d nodes, %d kbps stream, %d rounds)\n",
		sc.Description, o.Nodes, o.StreamKbps, rounds)
	b.WriteString("paper §III assumes a dynamic membership substrate; accountability must hold across its epochs\n\n")
	fmt.Fprintf(&b, "conviction threshold: %d verdicts (linger-scaled; transient crash noise stays below it)\n\n", threshold)
	fmt.Fprintf(&b, "%-10s %-10s %-16s %-16s %-8s %-12s\n",
		"protocol", "members", "continuity", "bw(kbps)", "epochs", "convictions")
	for _, p := range report.Protocols {
		fmt.Fprintf(&b, "%-10s %-10d %-16.3f %-16.0f %-8d %-12d\n",
			p.Protocol, p.FinalMembers, p.MeanContinuity, p.MeanBandwidthKbps,
			len(p.Epochs), len(p.Convictions))
	}
	b.WriteString("\nper-epoch slices (PAG run):\n")
	fmt.Fprintf(&b, "%-8s %-12s %-10s %-14s %-14s %-10s\n",
		"epoch", "rounds", "members", "continuity", "bw(kbps)", "verdicts")
	for _, e := range report.Protocols[0].Epochs {
		fmt.Fprintf(&b, "%-8d %v-%-9v %-10d %-14.3f %-14.0f %-10d\n",
			e.Index, e.StartRound, e.EndRound, e.Members,
			e.MeanContinuity, e.MeanBandwidthKbps, e.Verdicts)
	}
	return Result{ID: "churn", Title: "Accountable dissemination under churn", Text: b.String()}, nil
}

// ProVerif reruns the §VI-A symbolic analysis with the Dolev–Yao engine.
func ProVerif(Options) (Result, error) {
	var b strings.Builder
	b.WriteString("§VI-A — symbolic privacy analysis (ProVerif substitute)\n\n")

	scenario := func(name string, sc dolevyao.Scenario, target int) {
		s := dolevyao.BuildPAGRound(sc)
		s.Close()
		verdict := "P1 HOLDS (target update not derivable)"
		if s.KnowsUpdate(dolevyao.UpdateName(target)) {
			verdict = "ATTACK FOUND (target update derived)"
		}
		fmt.Fprintf(&b, "%-58s %s\n", name, verdict)
	}
	scenario("case 1: global active attacker, no insiders",
		dolevyao.Scenario{Preds: 3, Monitors: 3}, 0)
	scenario("case 2: all monitors, no predecessor",
		dolevyao.Scenario{Preds: 3, Monitors: 3, CorruptMons: []int{0, 1, 2}}, 0)
	scenario("case 2: all other predecessors, no monitor",
		dolevyao.Scenario{Preds: 3, Monitors: 3, CorruptPreds: []int{1, 2}}, 0)
	scenario("case 2: threshold coalition (monitor + predecessor)",
		dolevyao.Scenario{Preds: 3, Monitors: 3,
			Designate:    func(int) int { return 0 },
			CorruptPreds: []int{2}, CorruptMons: []int{0}}, 0)
	scenario("f=5: same coalition size",
		dolevyao.Scenario{Preds: 5, Monitors: 5,
			Designate:    func(int) int { return 0 },
			CorruptPreds: []int{4}, CorruptMons: []int{0}}, 0)
	scenario("f=5: full coalition",
		dolevyao.Scenario{Preds: 5, Monitors: 5,
			Designate:    func(int) int { return 0 },
			CorruptPreds: []int{2, 3, 4}, CorruptMons: []int{0}}, 0)

	b.WriteString("\npaper: no attack below the collusion threshold; attack found at it;\n")
	b.WriteString("increasing f reinforces the protocol (§VI-A)\n")
	return Result{ID: "proverif", Title: "Symbolic privacy analysis", Text: b.String()}, nil
}

// All runs every experiment in paper order, the measured follow-ups
// (churn study, capacity cliff) after the paper's own artifacts.
func All(opt Options) ([]Result, error) {
	runners := []func(Options) (Result, error){
		Fig7, Fig8, Table1, Table2, Fig9, Fig10, ChurnStudy, Cliff, ProVerif,
	}
	out := make([]Result, 0, len(runners))
	for _, run := range runners {
		r, err := run(opt)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
