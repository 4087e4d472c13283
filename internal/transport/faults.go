package transport

import (
	"sort"
	"sync"

	"repro/internal/model"
	"repro/internal/obs"
)

// This file is the transport-agnostic fault plane: the schedulable network
// conditions a scenario drives — uniform and per-link message loss,
// partitions that open and heal, per-node down flags and per-round upload
// caps — factored out of MemNet so that every Network implementation can
// apply the same surface. MemNet consults it at its canonical merge point
// (preserving sharded rounds' byte-identical guarantee); TCPNet
// consults it on the wire path, at send and receive.
//
// # The link model
//
// Upload caps are a queued link model, not a drop filter: a constrained
// uplink delays traffic before it loses it. Each capped node owns a FIFO
// byte-budgeted outbound queue. A message that exceeds the node's
// remaining per-round byte budget (or arrives while earlier messages are
// still queued — FIFO pacing admits nothing out of order) is deferred: it
// waits in the queue and is released in subsequent rounds at the cap
// rate, by the drain step the transports run at every round boundary
// (BeginRound). A queued message whose age exceeds the configured
// deadline (the §V-D playout window: content this stale is useless to the
// receiver) is expired — dropped and counted separately from loss drops,
// so reports can tell queue pressure from a lossy network.

// Outcome is a FaultPlane admission decision for one message.
type Outcome int

// The three admission outcomes.
const (
	// OutcomePass admits the message: the sender is charged and the
	// message proceeds toward delivery.
	OutcomePass Outcome = iota
	// OutcomeDropped discards the message after it left the sender's NIC:
	// the sender is charged, the receiver is not.
	OutcomeDropped
	// OutcomeQueued defers the message: the sender's per-round upload
	// budget is exhausted (or earlier messages are already waiting), so
	// the message sits in the node's outbound queue until a later round's
	// budget releases it — or until it expires. Nobody is charged until
	// release; release charges the round the bytes actually leave the NIC.
	OutcomeQueued
)

// DefaultQueueDeadlineRounds is the queue-expiry default: the paper's
// 10-round playout window (§V-D) — bytes still queued when their content's
// playback deadline passes can no longer be useful to the receiver.
const DefaultQueueDeadlineRounds = model.PlayoutDelayRounds

// queuedMsg is one deferred message with the plane round it was queued in.
type queuedMsg struct {
	msg   Message
	round uint64
}

// FaultPlane owns the scripted network conditions and their accounting.
// All zero-valued knobs describe a perfect network. Every draw comes from
// one seeded PRNG, so a run that consults the plane in a deterministic
// message order (MemNet's canonical merge) replays byte-identically under
// the same seed; a transport that consults it in wall-clock order (TCPNet)
// is statistically equivalent instead. The queue machinery itself never
// touches the PRNG: deferral and expiry are pure functions of byte
// budgets and round ages, so the Deferred/CapExpired counters agree
// exactly across transports for the same per-sender send sequence.
//
// A FaultPlane is safe for concurrent use; each Network owns exactly one
// (shared access via Faults()).
type FaultPlane struct {
	mu        sync.Mutex
	rng       model.SplitMix64
	drop      DropFunc
	lossRate  float64
	linkLoss  map[[2]model.NodeID]float64
	partition map[model.NodeID]int // node → group; nil when healed
	down      map[model.NodeID]bool
	caps      map[model.NodeID]uint64 // bytes per round; 0 = unlimited
	spent     map[model.NodeID]uint64 // bytes sent this round

	// queues holds each capped sender's deferred messages in FIFO order;
	// round counts BeginRound calls and prices queue ages, and deadline
	// is the age (in rounds spent waiting) beyond which a queued message
	// expires; <= 0 disables expiry. deadlines holds per-node overrides
	// (a node serving latecomers may tolerate staler queued bytes than
	// the global playout window).
	queues    map[model.NodeID][]queuedMsg
	round     uint64
	deadline  int
	deadlines map[model.NodeID]int

	// dlCaps/dlSpent are the download-side mirror of the upload model: a
	// per-round inbound byte budget applied at delivery. Unlike uploads
	// there is no queue — a receiver's NIC has nowhere to push back, so
	// over-budget arrivals are discarded (dlDropped). The check never
	// rolls the PRNG, so with uniform message sizes the per-script drop
	// count is arrival-order independent and agrees across transports.
	dlCaps    map[model.NodeID]uint64
	dlSpent   map[model.NodeID]uint64
	dlDropped uint64

	dropped  uint64
	deferred uint64
	expired  uint64

	// o mirrors the counters above into the observability plane (nil
	// instruments when no registry is attached — every call no-ops).
	// Because both MemNet and TCPNet route every admission through this
	// plane, the deterministic fault counters agree exactly across
	// transports for the same per-sender send sequence, which is what
	// the mem/tcp snapshot-parity test asserts.
	o planeObs
}

// planeObs holds the fault plane's observability instruments. All are
// ClassDet: admission outcomes are pure functions of budgets, ages and
// the seeded PRNG, never of scheduling.
type planeObs struct {
	admitted  *obs.Counter
	dropped   *obs.Counter
	deferred  *obs.Counter
	released  *obs.Counter
	expired   *obs.Counter
	dlDropped *obs.Counter
	depth     *obs.Gauge
	trace     *obs.Tracer
}

// faultSeedMix is the PRNG whitening constant shared by seeded and default
// initialisation, so SetSeed(0) reproduces the default plane.
const faultSeedMix = 0x9E3779B97F4A7C15

// NewFaultPlane creates a fault plane describing a perfect network.
func NewFaultPlane() *FaultPlane {
	return &FaultPlane{
		rng:       model.SplitMix64{State: faultSeedMix},
		down:      make(map[model.NodeID]bool),
		caps:      make(map[model.NodeID]uint64),
		spent:     make(map[model.NodeID]uint64),
		queues:    make(map[model.NodeID][]queuedMsg),
		deadline:  DefaultQueueDeadlineRounds,
		deadlines: make(map[model.NodeID]int),
		dlCaps:    make(map[model.NodeID]uint64),
		dlSpent:   make(map[model.NodeID]uint64),
	}
}

// Instrument attaches the observability plane: registry counters
// mirroring every admission outcome (unlike the resettable legacy
// counters they are cumulative for the plane's lifetime), a
// current-backlog gauge updated at each BeginRound, and per-message
// defer/expire trace events. Either argument may be nil.
func (p *FaultPlane) Instrument(reg *obs.Registry, tr *obs.Tracer) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.o = planeObs{
		admitted:  reg.Counter("pag_net_admitted_total"),
		dropped:   reg.Counter("pag_net_dropped_total"),
		deferred:  reg.Counter("pag_net_deferred_total"),
		released:  reg.Counter("pag_net_released_total"),
		expired:   reg.Counter("pag_net_expired_total"),
		dlDropped: reg.Counter("pag_net_dl_dropped_total"),
		depth:     reg.Gauge("pag_net_queue_depth"),
		trace:     tr,
	}
}

// SetSeed re-seeds the plane's PRNG; runs with the same seed and the same
// admission sequence replay identically.
func (p *FaultPlane) SetSeed(seed uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rng = model.SplitMix64{State: seed ^ faultSeedMix}
}

// SetDropFunc installs a fault-injection predicate (nil to clear). Dropped
// messages are charged to the sender (the bytes left the NIC) but not the
// receiver.
func (p *FaultPlane) SetDropFunc(f DropFunc) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.drop = f
}

// SetLossRate sets the uniform message-loss probability in [0, 1].
func (p *FaultPlane) SetLossRate(rate float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.lossRate = clampProb(rate)
}

// SetLinkLoss sets the loss probability of the directed link from → to
// (applied on top of the uniform rate; 0 removes the entry).
func (p *FaultPlane) SetLinkLoss(from, to model.NodeID, rate float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	rate = clampProb(rate)
	if rate == 0 {
		delete(p.linkLoss, [2]model.NodeID{from, to})
		return
	}
	if p.linkLoss == nil {
		p.linkLoss = make(map[[2]model.NodeID]float64)
	}
	p.linkLoss[[2]model.NodeID{from, to}] = rate
}

// SetPartition splits the network: messages crossing group boundaries are
// dropped. Nodes absent from every listed group form one implicit extra
// group (so SetPartition([]{victim}) isolates a single node). Heal removes
// the partition.
func (p *FaultPlane) SetPartition(groups ...[]model.NodeID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.partition = make(map[model.NodeID]int)
	for g, members := range groups {
		for _, id := range members {
			p.partition[id] = g + 1
		}
	}
}

// Heal removes the current partition.
func (p *FaultPlane) Heal() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.partition = nil
}

// SetNodeDown marks a node crashed: everything it sends or should receive
// is dropped until it comes back up. The node's link queue dies with its
// NIC — a crashed machine's buffered frames are gone, counted as drops —
// so a later recovery (or an evicted id re-joining after quarantine)
// starts with an empty uplink, never a stale pre-crash backlog.
func (p *FaultPlane) SetNodeDown(id model.NodeID, isDown bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.down[id] = isDown
	if isDown {
		if q := p.queues[id]; len(q) > 0 {
			p.dropped += uint64(len(q))
			p.o.dropped.Add(uint64(len(q)))
			delete(p.queues, id)
		}
	}
}

// SetUploadCap bounds a node's outbound bytes per round (0 removes the
// cap). Over-budget messages queue at the NIC instead of vanishing: they
// are released in FIFO order by later rounds' budgets (so the node's
// measured egress saturates at the cap while its backlog grows) and
// expire — counted in CapExpired — once they out-age the queue deadline.
// Removing the cap releases the whole backlog at the next round boundary.
func (p *FaultPlane) SetUploadCap(id model.NodeID, bytesPerRound uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if bytesPerRound == 0 {
		delete(p.caps, id)
		return
	}
	p.caps[id] = bytesPerRound
}

// SetUploadCapKbps sets a node's upload cap from a link rate in kbps
// (<= 0 removes the cap), using the paper's one-second rounds (§VII-A).
// It is the single home of the kbps→bytes-per-round conversion, shared by
// the simulated session and the TCP deployment so the two cannot drift.
func (p *FaultPlane) SetUploadCapKbps(id model.NodeID, kbps int) {
	if kbps <= 0 {
		p.SetUploadCap(id, 0)
		return
	}
	p.SetUploadCap(id, uint64(kbps)*1000/8*model.RoundDurationSeconds)
}

// SetQueueDeadline bounds how many rounds a deferred message may wait in
// a capped node's queue before it expires (the §V-D playout window; the
// default is DefaultQueueDeadlineRounds, and a session lowers it to its
// TTL). rounds <= 0 disables expiry — an unbounded queue, the pure
// store-and-forward ablation.
func (p *FaultPlane) SetQueueDeadline(rounds int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.deadline = rounds
}

// SetQueueDeadlineFor overrides the queue deadline of one node (a slow
// uplink serving latecomers may tolerate staler bytes than the global
// playout window, or expire sooner). rounds == 0 removes the override —
// the node falls back to the global deadline — and rounds < 0 disables
// expiry for the node entirely.
func (p *FaultPlane) SetQueueDeadlineFor(id model.NodeID, rounds int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if rounds == 0 {
		delete(p.deadlines, id)
		return
	}
	p.deadlines[id] = rounds
}

// deadlineFor resolves a node's effective queue deadline, with p.mu held.
func (p *FaultPlane) deadlineFor(id model.NodeID) int {
	if d, ok := p.deadlines[id]; ok {
		return d
	}
	return p.deadline
}

// SetDownloadCap bounds a node's inbound bytes per round (0 removes the
// cap) — the download side of the paper's asymmetric-link model (§V-C
// pairs constrained uplinks with ADSL-style downlinks). There is no
// inbound queue: a receiver cannot defer what peers already sent, so
// over-budget arrivals are discarded and counted in DownloadDropped.
func (p *FaultPlane) SetDownloadCap(id model.NodeID, bytesPerRound uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if bytesPerRound == 0 {
		delete(p.dlCaps, id)
		return
	}
	p.dlCaps[id] = bytesPerRound
}

// SetDownloadCapKbps sets a node's download cap from a link rate in kbps
// (<= 0 removes the cap), sharing the upload side's kbps→bytes-per-round
// conversion so the two directions cannot drift.
func (p *FaultPlane) SetDownloadCapKbps(id model.NodeID, kbps int) {
	if kbps <= 0 {
		p.SetDownloadCap(id, 0)
		return
	}
	p.SetDownloadCap(id, uint64(kbps)*1000/8*model.RoundDurationSeconds)
}

// AdmitInbound applies the receiver's download cap to one message that
// already survived the send-side plane, reporting whether it is
// delivered. The sender is charged either way (the bytes crossed the
// wire); a false return means the receiver's NIC discarded the message —
// the caller must not deliver or charge the receiver. Like the upload
// rule, an oversized message passes on an untouched round rather than
// wedging forever. No PRNG is consulted, so for uniform message sizes the
// drop count is independent of arrival order and agrees across
// transports.
func (p *FaultPlane) AdmitInbound(msg Message) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	limit, ok := p.dlCaps[msg.To]
	if !ok {
		return true
	}
	size := uint64(msg.WireSize())
	if p.dlSpent[msg.To] > 0 && p.dlSpent[msg.To]+size > limit {
		p.dlDropped++
		p.dropped++
		p.o.dlDropped.Inc()
		p.o.dropped.Inc()
		if p.o.trace != nil {
			p.o.trace.Emit("net_dl_drop", obs.F("round", p.round),
				obs.F("from", msg.From), obs.F("to", msg.To),
				obs.F("kind", msg.Kind), obs.F("size", msg.WireSize()))
		}
		return false
	}
	p.dlSpent[msg.To] += size
	return true
}

// DownloadDropped returns how many messages receivers' download caps
// discarded (a subset of Dropped).
func (p *FaultPlane) DownloadDropped() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dlDropped
}

// BeginRound opens a round at the link model: it expires over-age queued
// messages, resets the per-round upload budgets, and releases as much of
// each node's backlog as the fresh budget allows — in deterministic order
// (ascending node id, FIFO within a node), so the release sequence is
// independent of scheduling. The round driver calls it at the top of
// every round and must hand the returned messages to its delivery path:
// they have passed the cap (their budget is charged) but not the rest of
// the plane — run each through AdmitReleased before delivering.
func (p *FaultPlane) BeginRound() (released []Message) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.round++
	p.spent = make(map[model.NodeID]uint64, len(p.spent))
	if len(p.dlSpent) > 0 {
		p.dlSpent = make(map[model.NodeID]uint64, len(p.dlSpent))
	}
	if len(p.queues) == 0 {
		p.o.depth.Set(0)
		return nil
	}
	ids := make([]model.NodeID, 0, len(p.queues))
	for id := range p.queues {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		q := p.queues[id]
		// Expire from the head: FIFO means ages are non-increasing toward
		// the tail, so the expired prefix is contiguous. A message queued
		// during round r has age (round − r); it expires once the age
		// exceeds the deadline — i.e. it survived `deadline` full rounds
		// of release opportunities.
		// Per-node overrides resolve here, so a node's effective playout
		// window prices its own queue.
		deadline := p.deadlineFor(id)
		i := 0
		for ; i < len(q); i++ {
			if deadline <= 0 || p.round-q[i].round <= uint64(deadline) {
				break
			}
			p.expired++
			p.dropped++
			p.o.expired.Inc()
			p.o.dropped.Inc()
			if p.o.trace != nil {
				m := q[i].msg
				p.o.trace.Emit("net_expire", obs.F("round", p.round),
					obs.F("from", m.From), obs.F("to", m.To),
					obs.F("kind", m.Kind), obs.F("queued_round", q[i].round))
			}
		}
		q = q[i:]
		// Release in FIFO order while the fresh budget lasts. A removed
		// cap (limit 0) releases the whole backlog. A frame larger than
		// the whole per-round budget goes out when it reaches the head
		// of the line at a fresh round — it overshoots and consumes the
		// entire budget, like a serializing NIC spilling across round
		// boundaries — so one oversized message delays the queue by a
		// round instead of wedging it forever.
		limit := p.caps[id]
		i = 0
		for ; i < len(q); i++ {
			size := uint64(q[i].msg.WireSize())
			if limit > 0 && p.spent[id] > 0 && p.spent[id]+size > limit {
				break
			}
			p.spent[id] += size
			released = append(released, q[i].msg)
		}
		if rest := q[i:]; len(rest) == 0 {
			delete(p.queues, id)
		} else {
			p.queues[id] = rest
		}
	}
	p.o.released.Add(uint64(len(released)))
	depth := 0
	for _, q := range p.queues {
		depth += len(q)
	}
	p.o.depth.Set(int64(depth))
	if p.o.trace != nil && (len(released) > 0 || depth > 0) {
		p.o.trace.Emit("net_release", obs.F("round", p.round),
			obs.F("released", len(released)), obs.F("backlog", depth))
	}
	return released
}

// Dropped returns how many messages the fault plane (drop predicate, loss,
// partitions, down nodes and queue expiry combined) discarded. Deferred
// messages are not drops — they may still be delivered.
func (p *FaultPlane) Dropped() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dropped
}

// Deferred returns how many messages upload caps have queued for a later
// round (cumulative; a message deferred across several rounds counts
// once, at enqueue).
func (p *FaultPlane) Deferred() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.deferred
}

// CapExpired returns how many queued messages were dropped because they
// out-aged the queue deadline before the cap released them — the
// bandwidth plane's starvation signal, disjoint from loss drops.
func (p *FaultPlane) CapExpired() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.expired
}

// QueueDepth returns how many messages are currently waiting in the
// upload queues across all nodes.
func (p *FaultPlane) QueueDepth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, q := range p.queues {
		n += len(q)
	}
	return n
}

// QueueDepthOf returns how many messages one node's upload queue holds.
func (p *FaultPlane) QueueDepthOf(id model.NodeID) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queues[id])
}

// QueueBacklog is one node's current upload-queue depth — the per-node
// resolution of QueueDepth, so reports can name the hotspot instead of
// only sizing the aggregate backlog.
type QueueBacklog struct {
	Node  model.NodeID `json:"node"`
	Depth int          `json:"depth"`
}

// QueueBacklogs returns the nodes with non-empty upload queues in
// ascending id order. The deterministic ordering makes the slice safe to
// embed in byte-compared reports.
func (p *FaultPlane) QueueBacklogs() []QueueBacklog {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.queues) == 0 {
		return nil
	}
	out := make([]QueueBacklog, 0, len(p.queues))
	for id, q := range p.queues {
		if len(q) > 0 {
			out = append(out, QueueBacklog{Node: id, Depth: len(q)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// Admit runs one outbound message through the plane — upload cap/queue,
// drop predicate, down nodes, partition, uniform and per-link loss, in
// that fixed order (the order every PRNG draw depends on) — updates the
// counters and the sender's round budget, and returns the outcome. The
// caller charges traffic according to the outcome: sender on anything but
// OutcomeQueued, receiver only on OutcomePass. The plane takes the
// ownership Endpoint.Send was given: a queued message is retained as it is,
// payload and all, until a later BeginRound releases or expires it.
func (p *FaultPlane) Admit(msg Message) Outcome {
	p.mu.Lock()
	defer p.mu.Unlock()
	size := uint64(msg.WireSize())
	// A down sender drops before the queue gates: its NIC is dead, so
	// nothing defers on its behalf — the same instant-drop (charged, no
	// PRNG draw) its in-budget sends have always received. The drop
	// predicate still observes the message (test taps count on seeing
	// every non-deferred send, and its verdict cannot change a drop).
	if p.down[msg.From] {
		p.spent[msg.From] += size
		if p.drop != nil {
			_ = p.drop(msg)
		}
		p.dropped++
		p.o.dropped.Inc()
		return OutcomeDropped
	}
	// FIFO pacing: while anything is queued, later messages wait behind
	// it even if they would fit the remaining budget — or even if the cap
	// was just removed mid-round (the backlog still flushes first, at the
	// next round boundary). A frame larger than the whole budget passes
	// only on an untouched round (spent 0) and then consumes it all — the
	// same oversized-frame rule the release loop applies, so a message
	// can never be too big to ever leave the NIC.
	if len(p.queues[msg.From]) > 0 {
		p.enqueue(msg)
		return OutcomeQueued
	}
	if limit, ok := p.caps[msg.From]; ok &&
		p.spent[msg.From] > 0 && p.spent[msg.From]+size > limit {
		p.enqueue(msg)
		return OutcomeQueued
	}
	p.spent[msg.From] += size
	if p.drop != nil && p.drop(msg) {
		p.dropped++
		p.o.dropped.Inc()
		return OutcomeDropped
	}
	if p.faultDrop(msg) {
		p.dropped++
		p.o.dropped.Inc()
		return OutcomeDropped
	}
	p.o.admitted.Inc()
	return OutcomePass
}

// enqueue defers msg on its sender's queue, with p.mu held.
func (p *FaultPlane) enqueue(msg Message) {
	p.queues[msg.From] = append(p.queues[msg.From], queuedMsg{msg: msg, round: p.round})
	p.deferred++
	p.o.deferred.Inc()
	if p.o.trace != nil {
		p.o.trace.Emit("net_defer", obs.F("round", p.round),
			obs.F("from", msg.From), obs.F("to", msg.To),
			obs.F("kind", msg.Kind), obs.F("size", msg.WireSize()),
			obs.F("queue_depth", len(p.queues[msg.From])))
	}
}

// AdmitReleased runs a queue-released message through the post-cap half of
// the plane — drop predicate, down nodes, partition, loss — and returns
// OutcomePass or OutcomeDropped. BeginRound already charged the budget;
// the caller charges traffic exactly as for Admit. Transports must call
// it in the release order BeginRound returned, so the PRNG draws stay in
// the deterministic sequence MemNet's byte-identity requires.
func (p *FaultPlane) AdmitReleased(msg Message) Outcome {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.drop != nil && p.drop(msg) {
		p.dropped++
		p.o.dropped.Inc()
		return OutcomeDropped
	}
	if p.faultDrop(msg) {
		p.dropped++
		p.o.dropped.Inc()
		return OutcomeDropped
	}
	p.o.admitted.Inc()
	return OutcomePass
}

// faultDrop decides, with p.mu held, whether the scripted conditions
// discard msg after the sender was charged.
func (p *FaultPlane) faultDrop(msg Message) bool {
	if p.down[msg.From] || p.down[msg.To] {
		return true
	}
	if p.partition != nil && p.partition[msg.From] != p.partition[msg.To] {
		return true
	}
	if r := p.lossRate; r > 0 && p.rng.Float() < r {
		return true
	}
	if r := p.linkLoss[[2]model.NodeID{msg.From, msg.To}]; r > 0 && p.rng.Float() < r {
		return true
	}
	return false
}

// ReceiveBlocked is the receive-side recheck for transports with real
// propagation delay: a message admitted at send time but arriving after
// its link partitioned or either end went down is discarded (and counted)
// here. It never consults the PRNG — loss is decided exactly once, at
// admission — so send-side and receive-side application cannot double-roll
// a message.
func (p *FaultPlane) ReceiveBlocked(msg Message) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.down[msg.From] || p.down[msg.To] ||
		(p.partition != nil && p.partition[msg.From] != p.partition[msg.To]) {
		p.dropped++
		p.o.dropped.Inc()
		return true
	}
	return false
}

// refundSpent returns an admitted message's bytes to the sender's round
// budget — for transports where a send can fail after admission (a TCP
// write error): the bytes never left the NIC, so they must not count
// against the cap. The PRNG draw is not (and cannot be) undone; faulty
// TCP runs are statistical, never byte-replayed.
func (p *FaultPlane) refundSpent(id model.NodeID, size uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.spent[id] >= size {
		p.spent[id] -= size
	}
}

// resetCounters zeroes the drop, deferral and expiry counters
// (MemNet.ResetTraffic contract). Queued messages are in-flight state,
// not statistics: the backlog survives a counter reset.
func (p *FaultPlane) resetCounters() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.dropped = 0
	p.deferred = 0
	p.expired = 0
	p.dlDropped = 0
}

// ---------------------------------------------------------------------------
// Transport-agnostic network surfaces
// ---------------------------------------------------------------------------

// SteppedNetwork is the surface a round engine drives: registration plus
// per-round link-queue drain and budget reset, a quiescence point between
// phases, and per-node traffic accounting for the bandwidth meter. MemNet
// delivers everything synchronously at DeliverAll; TCPNet waits for its
// wire traffic to drain.
type SteppedNetwork interface {
	Network
	// BeginRound runs the round-boundary link-model step: expire over-age
	// queued messages, reset the per-round upload budgets, and move the
	// releasable backlog back onto the delivery path.
	BeginRound()
	// DeliverAll delivers until the network quiesces and returns how many
	// messages were handed to handlers.
	DeliverAll() int
	// TrafficOf returns the cumulative traffic snapshot of a node.
	TrafficOf(id model.NodeID) Traffic
}

// FaultyNetwork is the scenario-facing surface: a SteppedNetwork with a
// schedulable fault plane and a dynamic roster. Both MemNet and TCPNet
// implement it, so the scenario subsystem and sessions are written against
// the interface, never a concrete transport.
type FaultyNetwork interface {
	SteppedNetwork
	// Unregister detaches a node's handler mid-run (a leave); it reports
	// whether the node was registered.
	Unregister(id model.NodeID) bool
	// Faults returns the network's fault plane.
	Faults() *FaultPlane
	// Dropped returns the fault plane's combined drop counter.
	Dropped() uint64
	// TotalTraffic sums all per-node traffic counters.
	TotalTraffic() Traffic
	// Name identifies the transport ("mem" or "tcp") for run metadata.
	Name() string
	// Close releases the transport's resources (no-op for MemNet).
	Close() error
}

var (
	_ FaultyNetwork = (*MemNet)(nil)
	_ FaultyNetwork = (*TCPNet)(nil)
)
