// Package lite models off-cohort nodes for the sampled-cohort scaling
// mode (Fig 9 beyond full simulation reach). The paper itself switches
// from simulation to computation past a size threshold ("We also computed
// the scalability of the protocol when the number of nodes was too high
// to be simulated", §VII-A); the sampled-cohort mode splits the
// difference: a deterministic cohort runs the full §V protocol with exact
// accountability checks, while every other member is a lite.Node — a
// traffic-faithful stand-in that derives its round topology from the same
// kind of seeded hashing the membership directory uses and accounts the
// analytic per-node byte model, at ~100 bytes of state per node instead
// of the full protocol machine.
//
// Lite nodes are deterministic pure functions of (seed, id, round): they
// send no transport messages, touch no shared mutable state during
// phases, and therefore cannot perturb the cohort — the cohort's report
// stays byte-identical to itself at any worker count with any number of
// lite nodes attached.
package lite

import (
	"sort"

	"repro/internal/analytic"
	"repro/internal/model"
)

// Config parameterises a Plane.
type Config struct {
	// GlobalN is the modelled system size (cohort + lite).
	GlobalN int
	// Fanout is the per-round successor count (model.FanoutFor(GlobalN)
	// when zero) — also the monitor count, as in the paper.
	Fanout int
	// Seed drives topology derivation and delivery jitter.
	Seed uint64
	// StreamKbps / UpdateBytes describe the modelled stream.
	StreamKbps  int
	UpdateBytes int
	// TTL is an update's lifetime in rounds, forwarding expiration and
	// playout deadline alike (model.ForwardingTTL(GlobalN, Fanout) when
	// zero, a session's default).
	TTL int
	// Wire overrides the analytic byte constants (DefaultWire when
	// zero) — pass the session's actual encoding sizes so modelled
	// bytes match what the cohort pays per message.
	Wire analytic.Wire
}

// Plane is the shared state of every lite node: the modelled per-round
// byte cost, the stream's injection schedule and the epidemic saturation
// delay. Immutable after New.
type Plane struct {
	cfg Config
	// satRounds is the epidemic saturation time ⌈log_{f+1} N⌉: how many
	// rounds a chunk takes to reach everyone.
	satRounds int
	// chunksPerRound is the stream's injection rate.
	chunksPerRound float64
	// upBytes / downBytes are the modelled per-node per-round traffic,
	// from the analytic structural model at the plane's parameters.
	upBytes, downBytes float64

	nodes []*Node // ascending id order
}

// New builds a plane. The analytic model is evaluated once; every node
// shares the result.
func New(cfg Config) *Plane {
	if cfg.Fanout == 0 {
		cfg.Fanout = model.FanoutFor(cfg.GlobalN)
	}
	if cfg.TTL == 0 {
		cfg.TTL = int(model.ForwardingTTL(cfg.GlobalN, cfg.Fanout))
	}
	if cfg.UpdateBytes == 0 {
		cfg.UpdateBytes = model.UpdateBytes
	}
	kbps := analytic.PAGPerNodeKbps(analytic.Params{
		PayloadKbps: cfg.StreamKbps,
		UpdateBytes: cfg.UpdateBytes,
		N:           cfg.GlobalN,
		Fanout:      cfg.Fanout,
		Monitors:    cfg.Fanout,
		TTLRounds:   cfg.TTL,
		Wire:        cfg.Wire,
	})
	// The analytic figure is per-node consumption, the mean of upload
	// and download (dissemination traffic is symmetric in aggregate).
	perRound := kbps * 1000 / 8 * model.RoundDurationSeconds
	return &Plane{
		cfg:            cfg,
		satRounds:      model.SaturationRounds(cfg.GlobalN, cfg.Fanout),
		chunksPerRound: float64(cfg.StreamKbps) * 1000 / 8 / float64(cfg.UpdateBytes),
		upBytes:        perRound,
		downBytes:      perRound,
	}
}

// PerNodeKbps returns the modelled per-node bandwidth (the analytic
// prediction every lite node accounts).
func (p *Plane) PerNodeKbps() float64 {
	return (p.upBytes + p.downBytes) / 2 * 8 / 1000 / model.RoundDurationSeconds
}

// SatRounds returns the modelled epidemic saturation delay.
func (p *Plane) SatRounds() int { return p.satRounds }

// Node creates (and tracks) the lite stand-in for one off-cohort id.
func (p *Plane) Node(id model.NodeID) *Node {
	n := &Node{id: id, pl: p}
	p.nodes = append(p.nodes, n)
	return n
}

// Len returns how many lite nodes the plane tracks.
func (p *Plane) Len() int { return len(p.nodes) }

// Node is one off-cohort member: a sim.Protocol implementation whose
// whole round is O(fanout) hashing plus counter arithmetic.
type Node struct {
	id model.NodeID
	pl *Plane

	// Delivery bookkeeping: chunks due so far and chunks that made
	// their playout deadline under the modelled epidemic delay.
	due       uint64
	delivered uint64
	// Modelled traffic, accumulated per round.
	bytesUp, bytesDown uint64
	// measureUp/measureDown snapshot the counters at StartMeasuring.
	measureUp, measureDown uint64
	measuredRounds         uint64
	measuring              bool
}

// ID implements sim.Protocol.
func (n *Node) ID() model.NodeID { return n.id }

// BeginRound derives the round's successors (the hash work a real
// membership lookup would do, kept so lite rounds are not free) and
// accounts the modelled upload.
func (n *Node) BeginRound(r model.Round) {
	var sink uint64
	for i, got := 0, 0; got < n.pl.cfg.Fanout; i++ {
		s := n.successor(r, i)
		if s == n.id {
			continue
		}
		sink ^= uint64(s)
		got++
	}
	_ = sink
	n.bytesUp += uint64(n.pl.upBytes)
	if n.measuring {
		n.measuredRounds++
	}
}

// successor returns the i-th hash-derived successor candidate for round r.
func (n *Node) successor(r model.Round, i int) model.NodeID {
	h := model.Hash64(n.pl.cfg.Seed ^
		uint64(n.id)*0x9E3779B97F4A7C15 ^
		uint64(r)*0xBF58476D1CE4E5B9 ^
		uint64(i)*0x94D049BB133111EB)
	return model.NodeID(h%uint64(n.pl.cfg.GlobalN) + 1)
}

// Successors returns the node's derived successor set for round r in
// ascending order — the deterministic topology tests pin down.
func (n *Node) Successors(r model.Round) []model.NodeID {
	out := make([]model.NodeID, 0, n.pl.cfg.Fanout)
	for i, got := 0, 0; got < n.pl.cfg.Fanout; i++ {
		s := n.successor(r, i)
		if s == n.id {
			continue
		}
		out = append(out, s)
		got++
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// MidRound implements sim.Protocol (no monitor work to model).
func (n *Node) MidRound(model.Round) {}

// EndRound implements sim.Protocol.
func (n *Node) EndRound(model.Round) {}

// CloseRound accounts the modelled download and resolves the chunks whose
// playout deadline is round r: a chunk injected at round j is due at
// j+TTL and delivered iff the epidemic saturation delay plus this node's
// per-chunk jitter fits inside the deadline.
func (n *Node) CloseRound(r model.Round) {
	n.bytesDown += uint64(n.pl.downBytes)
	j := int64(r) - int64(n.pl.cfg.TTL)
	if j < 1 {
		return
	}
	first := uint64(float64(j-1) * n.pl.chunksPerRound)
	last := uint64(float64(j) * n.pl.chunksPerRound)
	for c := first; c < last; c++ {
		n.due++
		jitter := int(model.Hash64(n.pl.cfg.Seed^
			uint64(n.id)*0xBF58476D1CE4E5B9^
			c*0x9E3779B97F4A7C15) % 3)
		if n.pl.satRounds+jitter <= n.pl.cfg.TTL {
			n.delivered++
		}
	}
}

// StartMeasuring opens the node's steady-state window (mirrors the
// engine meter for the cohort).
func (n *Node) StartMeasuring() {
	n.measureUp, n.measureDown = n.bytesUp, n.bytesDown
	n.measuredRounds = 0
	n.measuring = true
}

// BandwidthKbps returns the modelled bandwidth over the measured window.
func (n *Node) BandwidthKbps() float64 {
	if n.measuredRounds == 0 {
		return 0
	}
	bytes := float64(n.bytesUp-n.measureUp+n.bytesDown-n.measureDown) / 2
	return bytes * 8 / 1000 / (float64(n.measuredRounds) * model.RoundDurationSeconds)
}

// Continuity returns delivered/due (1 before any chunk came due).
func (n *Node) Continuity() float64 {
	if n.due == 0 {
		return 1
	}
	return float64(n.delivered) / float64(n.due)
}

// StartMeasuring opens every lite node's measurement window.
func (p *Plane) StartMeasuring() {
	for _, n := range p.nodes {
		n.StartMeasuring()
	}
}

// MeanBandwidthKbps returns the plane-wide modelled bandwidth mean,
// aggregated in id order (deterministic).
func (p *Plane) MeanBandwidthKbps() float64 {
	if len(p.nodes) == 0 {
		return 0
	}
	var sum float64
	for _, n := range p.nodes {
		sum += n.BandwidthKbps()
	}
	return sum / float64(len(p.nodes))
}

// MeanContinuity returns the plane-wide modelled playback continuity.
func (p *Plane) MeanContinuity() float64 {
	if len(p.nodes) == 0 {
		return 1
	}
	var sum float64
	for _, n := range p.nodes {
		sum += n.Continuity()
	}
	return sum / float64(len(p.nodes))
}
