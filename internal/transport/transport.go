// Package transport provides the network substrates of the reproduction:
//
//   - MemNet: a deterministic in-memory network with per-node byte
//     accounting (kept by the fault plane, faults.go), retransmitted
//     message loss and partitions. It plays the
//     role of the paper's OMNeT++ simulation fabric: the measured quantity
//     (per-node bandwidth in kbps) is derived from exact encoded wire
//     sizes.
//   - TCPNet (tcp.go): a real TCP transport used by the cluster-deployment
//     analogue (cmd/pag-node, examples/tcp-cluster).
//
// Both implement the same Network interface, so protocol nodes are
// transport-agnostic, and both route every message through one FaultPlane,
// whose decisions are functions of the message, not of the order in which
// a transport admits it: a scripted run gives the same report on either.
package transport

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/model"
)

// HeaderBytes is the per-message framing overhead charged to the bandwidth
// accounting: IP+UDP-sized header plus the (from, to, kind, length) frame.
// The paper measures application-observable bandwidth, which includes
// per-packet overhead of this magnitude.
const HeaderBytes = 40

// Message is one delivered datagram.
type Message struct {
	From    model.NodeID
	To      model.NodeID
	Kind    uint8
	Payload []byte
}

// WireSize returns the accounted size of the message in bytes.
func (m Message) WireSize() int { return HeaderBytes + len(m.Payload) }

// Handler consumes delivered messages. Handlers may send further messages.
//
// The payload is lent for the duration of the call: a handler must not
// write to it and must not keep it, or any slice of it, once it returns —
// what it needs later it copies. The same bytes may be the sender's
// retained evidence and the payload of every other recipient of a fan-out
// (MemNet), or a slice of a receive arena that is recycled when the
// delivery wave has been handled (the socket transports).
type Handler func(Message)

// Endpoint is a node's attachment to a network.
type Endpoint interface {
	// NodeID returns the attached node.
	NodeID() model.NodeID
	// Send transmits a message. Whether it keeps payload depends on the
	// network, and KeepsPayload says which: MemNet keeps it — it may
	// deliver that very slice, or hold it in the link queue for a later
	// round — so the caller may keep reading it, and send it again, but
	// nobody may write to it from here on; TCPNet copies it into the
	// connection's batch buffer before Send returns, so the caller may
	// reuse it at once. A caller that will reuse its buffer sends it with
	// SendLent, which copies only where Send keeps.
	Send(to model.NodeID, kind uint8, payload []byte) error
	// KeepsPayload reports whether Send keeps the payload it is given
	// (true) or is done with it when Send returns (false).
	KeepsPayload() bool
}

// SendLent sends payload, a buffer the caller will reuse once SendLent
// returns (a pooled wire.Writer, or a payload its handler was lent), to
// every destination in to. Where Send copies, payload goes as it is;
// where Send keeps, every destination is sent one exact-size clone. It
// returns the first send error; the other destinations are still sent.
func SendLent(ep Endpoint, kind uint8, payload []byte, to ...model.NodeID) error {
	if ep.KeepsPayload() {
		payload = bytes.Clone(payload)
	}
	var first error
	for _, id := range to {
		if err := ep.Send(id, kind, payload); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Network registers endpoints.
type Network interface {
	Register(id model.NodeID, h Handler) (Endpoint, error)
}

// Traffic is a cumulative per-node traffic counter snapshot.
type Traffic struct {
	BytesIn  uint64
	BytesOut uint64
	MsgsIn   uint64
	MsgsOut  uint64
}

// Add accumulates o into t.
func (t *Traffic) Add(o Traffic) {
	t.BytesIn += o.BytesIn
	t.BytesOut += o.BytesOut
	t.MsgsIn += o.MsgsIn
	t.MsgsOut += o.MsgsOut
}

// Sub returns t - o (component-wise), for per-round deltas.
func (t Traffic) Sub(o Traffic) Traffic {
	return Traffic{
		BytesIn:  t.BytesIn - o.BytesIn,
		BytesOut: t.BytesOut - o.BytesOut,
		MsgsIn:   t.MsgsIn - o.MsgsIn,
		MsgsOut:  t.MsgsOut - o.MsgsOut,
	}
}

// ---------------------------------------------------------------------------
// MemNet
// ---------------------------------------------------------------------------

// DropFunc decides whether a message is dropped (fault injection).
type DropFunc func(Message) bool

// MemNet is the in-memory simulated network. Delivery is explicit: queued
// messages are handed to handlers when the simulation engine calls
// DeliverPending/DeliverAll, which keeps rounds deterministic.
//
// Sends never touch shared delivery state directly: each endpoint buffers
// its outbound messages locally (per-sender FIFO), and the buffers are
// merged at the next delivery point in canonical order — ascending sender
// id, then send sequence. The fault plane (loss, partitions, caps, and
// with them all traffic charging) is applied during that merge, so the outcome
// of a seeded run depends only on what each node sent, never on the
// goroutine or engine interleaving that produced the sends. This is the
// invariant the parallel round engine's byte-identical guarantee rests on:
// any scheduler that lets every node produce its per-phase sends yields
// the same canonical message stream.
//
// Beyond the raw DropFunc hook, MemNet carries the schedulable FaultPlane
// (faults.go) — a loss rate that costs retransmissions, partitions that
// open and heal, per-node down flags and per-round upload caps modelled as
// queued links (over-budget messages defer and carry over, paced by the
// cap, expiring past the queue deadline). MemNet consults the plane only
// at the merge point — the backlog the plane released at the round top
// first, then fresh sends in merge order — so a faulty run replays
// byte-identically under the same seed and at any worker count.
type MemNet struct {
	// regMu guards the endpoint/handler registry. During a simulation
	// phase it is almost only read (Send checks the destination), so
	// concurrent senders share it; Register/Unregister happen between
	// phases.
	//
	// endpoints is an identity map: an id's endpoint is created once and
	// survives Unregister/Register cycles, so every handle ever returned
	// for an id stays usable. active is the merge set — the endpoints
	// TakeWave drains — pruned when an unregistered sender's outbox runs
	// dry and re-attached by its next Send, which keeps merge cost
	// proportional to live senders, not to every id ever seen.
	regMu     sync.RWMutex
	handlers  map[model.NodeID]Handler
	endpoints map[model.NodeID]*memEndpoint
	active    map[model.NodeID]*memEndpoint

	// Merge-point scratch, kept across waves so a steady-state TakeWave
	// allocates nothing: the merge set, the merged inflow and the wave
	// handed to the caller.
	mergeBuf []*memEndpoint
	inflow   []Message
	wave     []Delivery

	// faults is the transport-agnostic fault plane, consulted exclusively
	// at the merge point.
	faults *FaultPlane
}

var _ Network = (*MemNet)(nil)

// NewMemNet creates an empty in-memory network.
func NewMemNet() *MemNet {
	return &MemNet{
		handlers:  make(map[model.NodeID]Handler),
		endpoints: make(map[model.NodeID]*memEndpoint),
		active:    make(map[model.NodeID]*memEndpoint),
		faults:    NewFaultPlane(),
	}
}

// Faults returns the network's fault plane.
func (n *MemNet) Faults() *FaultPlane { return n.faults }

// Name identifies the transport for run metadata.
func (n *MemNet) Name() string { return "mem" }

// Addressable implements FaultyNetwork: a simulated network can register
// any id.
func (n *MemNet) Addressable(id model.NodeID) bool { return id != model.NoNode }

// Close implements FaultyNetwork; an in-memory network holds no resources.
func (n *MemNet) Close() error { return nil }

// Register implements Network.
func (n *MemNet) Register(id model.NodeID, h Handler) (Endpoint, error) {
	if id == model.NoNode {
		return nil, errors.New("transport: cannot register NoNode")
	}
	if h == nil {
		return nil, errors.New("transport: nil handler")
	}
	n.regMu.Lock()
	if _, ok := n.handlers[id]; ok {
		n.regMu.Unlock()
		return nil, fmt.Errorf("transport: node %v already registered", id)
	}
	n.handlers[id] = h
	ep, known := n.endpoints[id]
	if !known {
		ep = &memEndpoint{net: n, id: id}
		n.endpoints[id] = ep
	}
	n.active[id] = ep
	n.regMu.Unlock()
	return ep, nil
}

// Unregister detaches a node's handler so its id can be registered again
// later; queued messages to it are silently discarded at delivery and its
// traffic counters survive. The endpoint keeps working as a sender (only
// destinations are gated on registration): a drained endpoint leaves the
// merge set but its next Send re-attaches it. It reports whether the node
// was registered.
func (n *MemNet) Unregister(id model.NodeID) bool {
	n.regMu.Lock()
	defer n.regMu.Unlock()
	if _, ok := n.handlers[id]; !ok {
		return false
	}
	delete(n.handlers, id)
	if ep := n.active[id]; ep != nil {
		ep.mu.Lock()
		drained := len(ep.outbox) == 0
		ep.mu.Unlock()
		if drained {
			delete(n.active, id)
		}
	}
	return true
}

// BeginRound runs the link model's round-boundary drain: the fault plane
// expires over-age queued messages, resets the per-round upload budgets
// and releases the backlog the fresh budgets allow, which the next merge
// takes. The simulation engine calls it at the top of every round.
func (n *MemNet) BeginRound() { n.faults.BeginRound() }

func clampProb(p float64) float64 {
	switch {
	case p < 0:
		return 0
	case p > 1:
		return 1
	default:
		return p
	}
}

// mergeSet snapshots the active endpoints in canonical (ascending id)
// order, into buf's storage.
func (n *MemNet) mergeSet(buf []*memEndpoint) []*memEndpoint {
	eps := buf[:0]
	n.regMu.RLock()
	for _, ep := range n.active {
		eps = append(eps, ep)
	}
	n.regMu.RUnlock()
	slices.SortFunc(eps, func(a, b *memEndpoint) int { return cmp.Compare(a.id, b.id) })
	return eps
}

// PendingCount returns the number of messages in the endpoints' unflushed
// outboxes; what the fault plane holds (its upload queues and a released
// backlog awaiting the next merge) is not counted.
func (n *MemNet) PendingCount() int {
	total := 0
	for _, ep := range n.mergeSet(nil) {
		ep.mu.Lock()
		total += len(ep.outbox)
		ep.mu.Unlock()
	}
	return total
}

// Delivery is one deliverable message paired with its destination's
// handler, as returned by TakeWave. The receiver has already been charged.
type Delivery struct {
	Msg     Message
	Handler Handler
}

// TakeWave merges every endpoint's outbox into the queue in canonical
// order (ascending sender id, per-sender send sequence) — with the backlog
// the fault plane released at the round top ahead of every fresh send —
// applies the fault plane and all traffic charging, and drains the
// resulting wave. Admission and arrival run at the merge point, in
// canonical order, so the charge sequence is independent of how the sends
// were scheduled. The caller is responsible for invoking
// each Delivery's handler — in slice order (DeliverPending), or
// partitioned by destination for a sharded round (sim.Engine) (per-destination
// subsequences preserve the canonical order either way).
//
// TakeWave is the merge point and has one caller at a time. The returned
// slice is that caller's until its next TakeWave, which reuses the storage.
func (n *MemNet) TakeWave() []Delivery {
	// Drain the outboxes sender by sender in canonical order. Drained
	// endpoints whose id is no longer registered fall out of the merge
	// set (their next Send re-attaches them). Outboxes and the scratch
	// slices keep their arrays, cleared so no payload outlives its wave.
	clear(n.wave)
	inflow := n.inflow[:0]
	eps := n.mergeSet(n.mergeBuf)
	for _, ep := range eps {
		ep.mu.Lock()
		inflow = append(inflow, ep.outbox...)
		clear(ep.outbox)
		ep.outbox = ep.outbox[:0]
		ep.mu.Unlock()
	}
	n.pruneDeparted(eps)
	n.mergeBuf = eps

	out := n.wave[:0]
	for _, a := range n.faults.takeReleased() {
		if n.faults.Arrive(a.msg) {
			out = append(out, Delivery{Msg: a.msg})
		}
	}
	for _, msg := range inflow {
		// The fault plane (including down senders/receivers) filters at
		// admission; only cap-deferred messages stay queued between
		// rounds, inside the fault plane.
		if o, _ := n.faults.Admit(msg); o == OutcomePass && n.faults.Arrive(msg) {
			out = append(out, Delivery{Msg: msg})
		}
	}
	clear(inflow)
	n.inflow, n.wave = inflow, out

	// Resolve handlers. A destination unregistered while the message was
	// queued was charged above but is silently discarded.
	n.regMu.RLock()
	kept := out[:0]
	for _, d := range out {
		if h := n.handlers[d.Msg.To]; h != nil {
			d.Handler = h
			kept = append(kept, d)
		}
	}
	n.regMu.RUnlock()
	return kept
}

// pruneDeparted drops endpoints from the merge set when their sender is
// unregistered and their outbox is empty; the membership and emptiness
// are rechecked under the registry lock, so a racing Send or Register
// keeps the endpoint attached.
func (n *MemNet) pruneDeparted(eps []*memEndpoint) {
	n.regMu.Lock()
	for _, ep := range eps {
		if _, registered := n.handlers[ep.id]; registered {
			continue
		}
		ep.mu.Lock()
		drained := len(ep.outbox) == 0
		ep.mu.Unlock()
		if drained {
			delete(n.active, ep.id)
		}
	}
	n.regMu.Unlock()
}

// DeliverPending delivers the currently pending messages (a snapshot —
// messages sent by handlers during delivery are buffered for the next
// wave) and returns how many were delivered.
func (n *MemNet) DeliverPending() int {
	wave := n.TakeWave()
	for _, d := range wave {
		d.Handler(d.Msg)
	}
	return len(wave)
}

// MaxDeliveryWaves caps how many delivery waves a round engine drains at
// one phase barrier — a generous safety net against protocol livelock.
// DeliverAll (inline rounds) and sim.Engine's sharded rounds must share
// this cap: if a run ever hit a smaller cap on one path only, the two
// would deliver different message sets and break the byte-identical
// invariant.
const MaxDeliveryWaves = 64

// DeliverAll delivers waves until the queue drains, capped at
// MaxDeliveryWaves. It returns the total delivered.
func (n *MemNet) DeliverAll() int {
	total := 0
	for wave := 0; wave < MaxDeliveryWaves; wave++ {
		d := n.DeliverPending()
		total += d
		if d == 0 {
			return total
		}
	}
	return total
}

// TrafficOf returns the cumulative traffic snapshot of a node.
func (n *MemNet) TrafficOf(id model.NodeID) Traffic { return n.faults.TrafficOf(id) }

// TotalTraffic sums all per-node counters.
func (n *MemNet) TotalTraffic() Traffic { return n.faults.TotalTraffic() }

// memEndpoint buffers a node's outbound messages until the next merge
// point: the payloads themselves, which Send keeps (KeepsPayload). During a
// simulation phase an endpoint is driven by exactly one goroutine (its
// node's), so the mutex is uncontended; it exists for users that share an
// endpoint across goroutines.
type memEndpoint struct {
	net *MemNet
	id  model.NodeID

	mu     sync.Mutex
	outbox []Message
}

func (e *memEndpoint) NodeID() model.NodeID { return e.id }

// KeepsPayload implements Endpoint: the outbox, the wave and the link
// queue hold the very slice Send was given.
func (e *memEndpoint) KeepsPayload() bool { return true }

func (e *memEndpoint) Send(to model.NodeID, kind uint8, payload []byte) error {
	e.net.regMu.RLock()
	_, known := e.net.handlers[to]
	attached := e.net.active[e.id] == e
	e.net.regMu.RUnlock()
	if !known {
		return fmt.Errorf("transport: unknown destination %v", to)
	}
	e.mu.Lock()
	e.outbox = append(e.outbox, Message{From: e.id, To: to, Kind: kind, Payload: payload})
	e.mu.Unlock()
	if !attached {
		// A sender pruned after its id departed rejoins the merge set.
		e.net.regMu.Lock()
		e.net.active[e.id] = e
		e.net.regMu.Unlock()
	}
	return nil
}
