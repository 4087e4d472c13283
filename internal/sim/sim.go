// Package sim drives round-phased protocol nodes over the in-memory
// network: it is the reproduction's OMNeT++ analogue (§VII-A, "Simulations
// settings"). The engine advances rounds in four phases with full message
// delivery between them, keeping every run deterministic under a fixed
// seed, and collects the per-node bandwidth statistics the paper plots.
package sim

import (
	"fmt"
	"sort"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/transport"
)

// Protocol is a round-phased protocol node. PAG nodes, AcTinG nodes and
// RAC nodes all implement it.
type Protocol interface {
	// ID returns the node's identifier.
	ID() model.NodeID
	// BeginRound opens a round (send opening messages).
	BeginRound(r model.Round)
	// MidRound runs after the exchange traffic quiesced (monitor
	// reports, accusations, audits).
	MidRound(r model.Round)
	// EndRound runs verification passes (may open investigations).
	EndRound(r model.Round)
	// CloseRound judges, delivers to the application and cleans up.
	CloseRound(r model.Round)
}

// Slotted is a Protocol whose exchange phase opens in several slots:
// BeginRound is slot 0 and the engines call OpenSlot for slots 1 to
// ExchangeSlots()−1, delivering to quiescence after each, before MidRound.
// PAG nodes implement it; a round of protocols that do not runs exactly
// the four phases.
type Slotted interface {
	Protocol
	// ExchangeSlots returns the slot count of a round (at least 1).
	ExchangeSlots() int
	// OpenSlot opens the exchanges of slot k of round r.
	OpenSlot(r model.Round, k int)
}

// RoundHook runs at the start of each round, before nodes act — the
// source's injection point.
type RoundHook func(r model.Round)

// Event is a scheduled action consulted at the top of its round, before
// hooks and node phases run — the scenario engine's injection point.
type Event func(r model.Round)

// Stepper is the round-driving abstraction a session runs on: the serial
// Engine below and the sharded parallel engine (internal/engine) both
// implement it, and — because MemNet merges sends at phase barriers in a
// canonical order — both produce byte-identical runs from the same seed.
//
// Mutating calls (Add, Remove, ScheduleAt, OnRoundStart, StartMeasuring)
// are only legal between rounds or from round-top events/hooks, which
// every implementation runs single-threaded.
type Stepper interface {
	// Add registers a protocol node.
	Add(p Protocol)
	// Remove detaches a node immediately; it reports whether the node was
	// present.
	Remove(id model.NodeID) bool
	// Has reports whether a node is currently attached.
	Has(id model.NodeID) bool
	// ScheduleAt queues fn to run at the top of round r.
	ScheduleAt(r model.Round, fn Event)
	// AddAt schedules a node to join at the top of round r.
	AddAt(r model.Round, p Protocol)
	// RemoveAt schedules a node's detachment at the top of round r.
	RemoveAt(r model.Round, id model.NodeID)
	// Nodes returns the registered node count.
	Nodes() int
	// Round returns the last completed round (0 before the first).
	Round() model.Round
	// OnRoundStart registers a hook invoked at the top of every round.
	OnRoundStart(h RoundHook)
	// RunRound advances one round through the four phases.
	RunRound()
	// Run advances n rounds.
	Run(n int)
	// StartMeasuring snapshots traffic counters to open the bandwidth
	// measurement window.
	StartMeasuring()
	// NodeBandwidthKbps returns one node's average bandwidth over the
	// measured window in kbps.
	NodeBandwidthKbps(id model.NodeID) float64
	// BandwidthSample returns the per-node bandwidth distribution over
	// the measured window, excluding the listed nodes.
	BandwidthSample(exclude ...model.NodeID) stats.Sample
}

var _ Stepper = (*Engine)(nil)

// Roster is the node, hook and event bookkeeping shared by the round
// engines. It implements the non-stepping half of Stepper; the serial
// engine below and the parallel engine (internal/engine) both embed it,
// so registration and scheduling semantics cannot drift apart between
// them — which the byte-identical guarantee depends on.
type Roster struct {
	nodes []Protocol
	hooks []RoundHook
	// slots is the largest ExchangeSlots of any Slotted node ever added
	// (1 when there is none: BeginRound alone).
	slots int

	// events holds scheduled actions keyed by the round they fire at.
	events map[model.Round][]Event
}

// Add registers a protocol node; nodes act in registration order, which
// must therefore be deterministic for reproducible runs.
func (ro *Roster) Add(p Protocol) {
	ro.nodes = append(ro.nodes, p)
	if s, ok := p.(Slotted); ok {
		ro.slots = max(ro.slots, s.ExchangeSlots())
	}
}

// Slots returns how many exchange slots a round of this roster has.
func (ro *Roster) Slots() int { return max(ro.slots, 1) }

// OpenSlot is the step of slot k for one member: OpenSlot on a Slotted
// node, nothing on any other.
func OpenSlot(p Protocol, r model.Round, k int) {
	if s, ok := p.(Slotted); ok {
		s.OpenSlot(r, k)
	}
}

// Remove detaches a node immediately (it stops receiving phase calls);
// it reports whether the node was present. Traffic counters survive in
// the network layer.
func (ro *Roster) Remove(id model.NodeID) bool {
	for i, n := range ro.nodes {
		if n.ID() == id {
			ro.nodes = append(ro.nodes[:i], ro.nodes[i+1:]...)
			return true
		}
	}
	return false
}

// Has reports whether a node is currently attached.
func (ro *Roster) Has(id model.NodeID) bool {
	for _, n := range ro.nodes {
		if n.ID() == id {
			return true
		}
	}
	return false
}

// ScheduleAt queues fn to run at the top of round r, before hooks and node
// phases. Events scheduled for rounds that already completed never fire.
func (ro *Roster) ScheduleAt(r model.Round, fn Event) {
	if ro.events == nil {
		ro.events = make(map[model.Round][]Event)
	}
	ro.events[r] = append(ro.events[r], fn)
}

// AddAt schedules a node to join the simulation at the top of round r.
func (ro *Roster) AddAt(r model.Round, p Protocol) {
	ro.ScheduleAt(r, func(model.Round) { ro.Add(p) })
}

// RemoveAt schedules a node's detachment at the top of round r.
func (ro *Roster) RemoveAt(r model.Round, id model.NodeID) {
	ro.ScheduleAt(r, func(model.Round) { ro.Remove(id) })
}

// Nodes returns the registered node count.
func (ro *Roster) Nodes() int { return len(ro.nodes) }

// OnRoundStart registers a hook invoked at the top of every round.
func (ro *Roster) OnRoundStart(h RoundHook) { ro.hooks = append(ro.hooks, h) }

// Members returns the attached nodes in registration order. The slice is
// shared with the roster: callers iterate it, they do not mutate it.
func (ro *Roster) Members() []Protocol { return ro.nodes }

// OpenRound fires round r's due events and then every hook, in
// registration order — the single-threaded round-top sequence both
// engines run before any node acts.
func (ro *Roster) OpenRound(r model.Round) {
	if evs, ok := ro.events[r]; ok {
		delete(ro.events, r)
		for _, ev := range evs {
			ev(r)
		}
	}
	for _, h := range ro.hooks {
		h(r)
	}
}

// Meter is the steady-state bandwidth measurement shared by the round
// engines: a snapshot of traffic counters at StartMeasuring, so warm-up
// rounds are excluded, as in the paper's steady-state numbers.
type Meter struct {
	net      transport.SteppedNetwork
	baseline map[model.NodeID]transport.Traffic
	measured model.Round // rounds measured so far
}

// NewMeter creates a meter over the network the engine runs on.
func NewMeter(net transport.SteppedNetwork) Meter { return Meter{net: net} }

// Start snapshots the members' traffic counters; bandwidth statistics
// cover the rounds run afterwards.
func (m *Meter) Start(members []Protocol) {
	m.baseline = make(map[model.NodeID]transport.Traffic, len(members))
	for _, n := range members {
		m.baseline[n.ID()] = m.net.TrafficOf(n.ID())
	}
	m.measured = 0
}

// RoundDone counts one completed round into the measured window (a no-op
// before Start).
func (m *Meter) RoundDone() {
	if m.baseline != nil {
		m.measured++
	}
}

// NodeBandwidthKbps returns one node's average bandwidth over the measured
// window in kbps. Each round is one second (§VII-A), and the per-node
// consumption is the mean of upload and download (dissemination traffic is
// symmetric in aggregate).
func (m *Meter) NodeBandwidthKbps(id model.NodeID) float64 {
	if m.measured == 0 {
		return 0
	}
	tr := m.net.TrafficOf(id)
	if base, ok := m.baseline[id]; ok {
		tr = tr.Sub(base)
	}
	bytes := float64(tr.BytesIn+tr.BytesOut) / 2
	seconds := float64(m.measured) * model.RoundDurationSeconds
	return bytes * 8 / 1000 / seconds
}

// Sample returns the members' bandwidth distribution over the measured
// window in ascending id order, excluding the listed nodes (the source is
// conventionally excluded, as its upload profile is not a client's).
func (m *Meter) Sample(members []Protocol, exclude ...model.NodeID) stats.Sample {
	skip := make(map[model.NodeID]bool, len(exclude))
	for _, id := range exclude {
		skip[id] = true
	}
	ids := make([]model.NodeID, 0, len(members))
	for _, n := range members {
		ids = append(ids, n.ID())
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	xs := make([]float64, 0, len(ids))
	for _, id := range ids {
		if skip[id] {
			continue
		}
		xs = append(xs, m.NodeBandwidthKbps(id))
	}
	return stats.NewSample(xs)
}

// Engine coordinates nodes and the network, stepping every node in one
// goroutine. It runs over any SteppedNetwork: MemNet (deterministic
// simulation) or TCPNet in stepped mode (real sockets, quiescence-based
// phase barriers).
type Engine struct {
	Roster
	meter Meter
	net   transport.SteppedNetwork
	round model.Round

	// Observability (nil without a registry): completed rounds and
	// handler deliveries are deterministic counts shared by both round
	// engines under the same metric names, so serial and parallel runs
	// of the same seed snapshot identically; the round-duration
	// histogram is wall-clock (ClassTimed).
	roundsC     *obs.Counter
	deliveriesC *obs.Counter
	roundSpans  *obs.Histogram
	trace       *obs.Tracer
}

// NewEngine creates an engine over a stepped network.
func NewEngine(net transport.SteppedNetwork) *Engine {
	return &Engine{net: net, meter: NewMeter(net)}
}

// Instrument attaches the observability registry and tracer (either may
// be nil): counters plus round_begin/round_end trace events bracketing
// every round, identical in form to the parallel engine's.
func (e *Engine) Instrument(reg *obs.Registry, tr *obs.Tracer) {
	e.roundsC = reg.Counter("pag_engine_rounds_total")
	e.deliveriesC = reg.Counter("pag_engine_deliveries_total")
	e.roundSpans = reg.Histogram("pag_engine_round_seconds", obs.ClassTimed, nil)
	e.trace = tr
}

// Round returns the last completed round (0 before the first).
func (e *Engine) Round() model.Round { return e.round }

// RunRound advances one round through the four phases (and, after
// BeginRound, the remaining exchange slots of Slotted nodes), delivering
// all pending traffic after each.
func (e *Engine) RunRound() {
	span := e.roundSpans.SpanStart()
	r := e.round + 1
	e.net.BeginRound()
	e.OpenRound(r)
	if e.trace != nil {
		e.trace.Emit("round_begin", obs.F("round", r), obs.F("nodes", e.Nodes()))
	}
	delivered := 0
	for _, n := range e.Members() {
		n.BeginRound(r)
	}
	delivered += e.net.DeliverAll()
	for k := 1; k < e.Slots(); k++ {
		for _, n := range e.Members() {
			OpenSlot(n, r, k)
		}
		delivered += e.net.DeliverAll()
	}
	for _, n := range e.Members() {
		n.MidRound(r)
	}
	delivered += e.net.DeliverAll()
	for _, n := range e.Members() {
		n.EndRound(r)
	}
	delivered += e.net.DeliverAll()
	for _, n := range e.Members() {
		n.CloseRound(r)
	}
	delivered += e.net.DeliverAll()
	e.round = r
	e.meter.RoundDone()
	e.roundsC.Inc()
	e.deliveriesC.Add(uint64(delivered))
	if e.trace != nil {
		e.trace.Emit("round_end", obs.F("round", r), obs.F("delivered", delivered))
		e.trace.Flush() // single-threaded point: deterministic drain order
	}
	e.roundSpans.SpanEnd(span)
}

// Run advances n rounds.
func (e *Engine) Run(n int) {
	for i := 0; i < n; i++ {
		e.RunRound()
	}
}

// StartMeasuring opens the steady-state measurement window (warm-up
// rounds before it are excluded, as in the paper's measurements).
func (e *Engine) StartMeasuring() { e.meter.Start(e.Members()) }

// NodeBandwidthKbps returns one node's average bandwidth over the
// measured window in kbps.
func (e *Engine) NodeBandwidthKbps(id model.NodeID) float64 {
	return e.meter.NodeBandwidthKbps(id)
}

// BandwidthSample returns the per-node bandwidth distribution over the
// measured window, excluding the listed nodes.
func (e *Engine) BandwidthSample(exclude ...model.NodeID) stats.Sample {
	return e.meter.Sample(e.Members(), exclude...)
}

// String summarises engine state.
func (e *Engine) String() string {
	return fmt.Sprintf("sim.Engine{nodes: %d, round: %v}", e.Nodes(), e.round)
}
