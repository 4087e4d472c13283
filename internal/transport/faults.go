package transport

import (
	"bytes"
	"cmp"
	"slices"
	"sync"

	"repro/internal/model"
	"repro/internal/obs"
)

// This file is the transport-agnostic fault plane: the schedulable network
// conditions a scenario drives — message loss, partitions that open and
// heal, per-node down flags and per-round upload caps — factored out of
// MemNet so that every Network implementation can apply the same surface.
// MemNet consults it at its merge point, TCPNet on the wire path, at send
// and receive; every decision it makes is a function of the message and the
// round, never of the order in which the transport admits messages, so one
// scripted run gives one report on either network.
//
// The plane also keeps the one per-node traffic ledger every bandwidth
// number is read from. It charges beside the decision that sets the
// charge: the sender for every copy admission lets leave the NIC, the
// receiver once when the message arrives (Arrive), and a refund returns
// what a failed socket write never sent. The networks keep no counters.
//
// # The failure model
//
// PAG assumes reliable authenticated channels between correct nodes
// (§III), so the plane loses a message only where no reliable channel
// could deliver it: its link is dead (an end is down, or a partition
// separates the ends), it expired in a capped upload queue, or a test's
// DropFunc discarded it. Scripted loss is not one of them: a lost attempt
// is retransmitted within the same phase, like a TCP segment, and every
// attempt is charged to the sender's traffic and upload budget while the
// receiver is charged once. Only a message lost maxAttempts times in a
// row is dropped.
//
// Attempt k of a message is lost iff a hash of (seed, plane round, from,
// to, kind, wire size, nth, k) falls below the loss rate, where nth counts
// the round's earlier messages with the same (from, to, kind, size).
// Messages sharing a key share a size, and loss only changes how many
// copies are charged, so a round's charges depend on the set of messages
// it admitted, not their order. The payload stays out of the key: runs of
// one session over sockets may carry different bytes of equal length.
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
// (BeginRound), and leave ahead of the round's fresh sends. A queued
// message whose age exceeds the configured
// deadline (the §V-D playout window: content this stale is useless to the
// receiver) is expired — dropped and counted separately from dead-link
// drops, so reports can tell queue pressure from a broken network.

// Outcome is a FaultPlane admission decision for one message.
type Outcome int

// The three admission outcomes.
const (
	// OutcomePass admits the message: the plane has charged the sender
	// and the message proceeds toward delivery (Arrive).
	OutcomePass Outcome = iota
	// OutcomeDropped discards the message after it left the sender's NIC:
	// the plane has charged the sender; nobody charges the receiver.
	OutcomeDropped
	// OutcomeQueued defers the message: the sender's per-round upload
	// budget is exhausted (or earlier messages are already waiting), so
	// the message sits in the node's outbound queue until a later round's
	// budget releases it — or until it expires. Nobody is charged until
	// release; release charges the round the bytes actually leave the NIC.
	OutcomeQueued
)

// maxAttempts bounds how often the plane sends one message over a lossy
// link: the first attempt plus TCP's default of 15 retransmissions.
const maxAttempts = 16

// DefaultQueueDeadlineRounds is the queue-expiry default: the paper's
// 10-round playout window (§V-D) — bytes still queued when their content's
// playback deadline passes can no longer be useful to the receiver.
const DefaultQueueDeadlineRounds = model.PlayoutDelayRounds

// queuedMsg is one deferred message with the plane round it was queued in.
type queuedMsg struct {
	msg   Message
	round uint64
}

// FaultPlane owns the scripted network conditions, their accounting and
// the per-node traffic ledger.
// All zero-valued knobs describe a perfect network. Loss is a function of
// the message and the seed, deferral and expiry of byte budgets and round
// ages, so for the same per-sender send sequences every transport gets the
// same counters and ledger.
//
// A FaultPlane is safe for concurrent use; each Network owns exactly one
// (shared access via Faults()).
type FaultPlane struct {
	mu        sync.Mutex
	seed      uint64
	drop      DropFunc
	lossRate  float64
	partition map[model.NodeID]int // node → group; nil when healed
	down      map[model.NodeID]bool
	caps      map[model.NodeID]uint64 // bytes per round; 0 = unlimited
	spent     map[model.NodeID]uint64 // bytes sent this round

	// traffic is the cumulative per-node ledger. An id's account outlives
	// its registration (an evicted node re-joining under its old id keeps
	// it): totals must stay monotonic or epoch bandwidth deltas would
	// underflow.
	traffic map[model.NodeID]*Traffic

	// queues holds each capped sender's deferred messages in FIFO order;
	// round counts BeginRound calls and prices queue ages, and deadline
	// is the age (in rounds spent waiting) beyond which a queued message
	// expires; <= 0 disables expiry.
	queues   map[model.NodeID][]queuedMsg
	round    uint64
	deadline int

	// released holds the backlog BeginRound released until a transport
	// takes it (takeReleased).
	released []Message

	// nth counts this round's messages per loss key, while loss is
	// scripted: a message's count when it is admitted is its nth.
	nth map[lossKey]uint64

	dropped       uint64
	deferred      uint64
	expired       uint64
	retransmitted uint64

	// o mirrors the counters above into the observability plane (nil
	// instruments when no registry is attached — every call no-ops).
	// Because both MemNet and TCPNet route every admission through this
	// plane, the deterministic fault counters agree exactly across
	// transports for the same per-sender send sequence, which is what
	// the mem/tcp snapshot-parity test asserts.
	o planeObs
}

// lossKey is the part of a message its loss decision reads; the seed, the
// round, the message's nth and the attempt make up the rest.
type lossKey struct {
	from, to model.NodeID
	kind     uint8
	size     uint64
}

// planeObs holds the fault plane's observability instruments. All are
// ClassDet: admission outcomes are pure functions of budgets, ages and
// the messages themselves, never of scheduling.
type planeObs struct {
	admitted      *obs.Counter
	dropped       *obs.Counter
	deferred      *obs.Counter
	released      *obs.Counter
	expired       *obs.Counter
	retransmitted *obs.Counter
	depth         *obs.Gauge
	trace         *obs.Tracer
}

// lossHashMix is the golden-ratio increment of the loss hash, splitmix64's,
// added at every mixing step so an all-zero key does not hash to zero.
const lossHashMix = 0x9E3779B97F4A7C15

// NewFaultPlane creates a fault plane describing a perfect network.
func NewFaultPlane() *FaultPlane {
	return &FaultPlane{
		down:     make(map[model.NodeID]bool),
		caps:     make(map[model.NodeID]uint64),
		spent:    make(map[model.NodeID]uint64),
		traffic:  make(map[model.NodeID]*Traffic),
		queues:   make(map[model.NodeID][]queuedMsg),
		nth:      make(map[lossKey]uint64),
		deadline: DefaultQueueDeadlineRounds,
	}
}

// Instrument attaches the observability plane: registry counters
// mirroring every admission outcome (cumulative for the plane's lifetime,
// like the plane's own counters), a
// current-backlog gauge updated at each BeginRound, and per-message
// defer/expire trace events. Either argument may be nil.
func (p *FaultPlane) Instrument(reg *obs.Registry, tr *obs.Tracer) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.o = planeObs{
		admitted:      reg.Counter("pag_net_admitted_total"),
		dropped:       reg.Counter("pag_net_dropped_total"),
		deferred:      reg.Counter("pag_net_deferred_total"),
		released:      reg.Counter("pag_net_released_total"),
		expired:       reg.Counter("pag_net_expired_total"),
		retransmitted: reg.Counter("pag_net_retransmitted_total"),
		depth:         reg.Gauge("pag_net_queue_depth"),
		trace:         tr,
	}
}

// SetSeed sets the seed of the loss hash; runs with the same seed lose the
// same attempts of the same messages.
func (p *FaultPlane) SetSeed(seed uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.seed = seed
}

// SetDropFunc installs a fault-injection predicate (nil to clear). Dropped
// messages are charged to the sender (the bytes left the NIC) but not the
// receiver.
func (p *FaultPlane) SetDropFunc(f DropFunc) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.drop = f
}

// SetLossRate sets the per-attempt message-loss probability in [0, 1]. A
// lost attempt is retransmitted, not discarded (see the failure model
// above).
func (p *FaultPlane) SetLossRate(rate float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.lossRate = clampProb(rate)
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

// BeginRound opens a round at the link model: it expires over-age queued
// messages, resets the per-round upload budgets and loss counts, and
// releases as much of each node's backlog as the fresh budget allows, in
// ascending node id order, FIFO within a node. The released messages have
// passed the cap (their first attempt's budget is spent) but not the rest
// of the plane: the plane holds them until a transport takes them
// (takeReleased).
func (p *FaultPlane) BeginRound() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.round++
	p.spent = make(map[model.NodeID]uint64, len(p.spent))
	clear(p.nth)
	if len(p.queues) == 0 {
		p.o.depth.Set(0)
		return
	}
	released := 0
	ids := make([]model.NodeID, 0, len(p.queues))
	for id := range p.queues {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		q := p.queues[id]
		// Expire from the head: FIFO means ages are non-increasing toward
		// the tail, so the expired prefix is contiguous. A message queued
		// during round r has age (round − r); it expires once the age
		// exceeds the deadline — i.e. it survived `deadline` full rounds
		// of release opportunities.
		i := 0
		for ; i < len(q); i++ {
			if p.deadline <= 0 || p.round-q[i].round <= uint64(p.deadline) {
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
			p.released = append(p.released, q[i].msg)
			released++
		}
		if rest := q[i:]; len(rest) == 0 {
			delete(p.queues, id)
		} else {
			p.queues[id] = rest
		}
	}
	p.o.released.Add(uint64(released))
	depth := 0
	for _, q := range p.queues {
		depth += len(q)
	}
	p.o.depth.Set(int64(depth))
	if p.o.trace != nil && (released > 0 || depth > 0) {
		p.o.trace.Emit("net_release", obs.F("round", p.round),
			obs.F("released", released), obs.F("backlog", depth))
	}
}

// admission is a message that passed the plane, with the copies it charged.
type admission struct {
	msg    Message
	copies int
}

// takeReleased hands over the backlog BeginRound released, once — MemNet
// takes it at its next merge, TCPNet at the round's first Send or drain,
// so both charge it after the round-top hooks. It runs each message
// through the post-cap half of the plane and returns those that passed,
// in release order, to be sent ahead of the round's fresh traffic.
func (p *FaultPlane) takeReleased() []admission {
	p.mu.Lock()
	defer p.mu.Unlock()
	var passed []admission
	for _, msg := range p.released {
		if o, copies := p.admitPostCap(msg, uint64(msg.WireSize())); o == OutcomePass {
			passed = append(passed, admission{msg, copies})
		}
	}
	clear(p.released)
	p.released = p.released[:0]
	return passed
}

// Dropped returns how many messages the fault plane (drop predicate,
// partitions, down nodes, queue expiry and the rare message lost on every
// attempt, combined) discarded. Deferred and retransmitted messages are not
// drops — they may still be delivered.
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

// Retransmitted returns how many extra attempts scripted loss cost: every
// lost attempt of a message that was sent again counts once.
func (p *FaultPlane) Retransmitted() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.retransmitted
}

// CapExpired returns how many queued messages were dropped because they
// out-aged the queue deadline before the cap released them — the
// bandwidth plane's starvation signal, disjoint from dead-link drops.
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
	slices.SortFunc(out, func(a, b QueueBacklog) int { return cmp.Compare(a.Node, b.Node) })
	return out
}

// admit is the plane's one admission entry point: it runs one outbound
// message through the upload cap/queue, then the post-cap half
// (admitPostCap), which charges the sender, and returns the outcome with
// the number of copies that left the sender's NIC: 0 when the message
// queued, else the first attempt plus its retransmissions. A transport
// needs the count only to refund a send whose socket write failed.
//
// lent says whose the payload is. An owned one (lent false: what MemNet's
// Send was given as it is) is retained in the link queue as it is until a
// later BeginRound releases or expires it. A lent one — TCPNet's, lent
// only for its Send, or MemNet's send-arena view, which its chunk
// outlives only until the wave is handled — is cloned into the link queue
// when the cap parks it, the one copy the plane makes.
func (p *FaultPlane) admit(msg Message, lent bool) (Outcome, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	size := uint64(msg.WireSize())
	// FIFO pacing: while anything is queued, later messages wait behind
	// it even if they would fit the remaining budget — or even if the cap
	// was just removed mid-round (the backlog still flushes first, at the
	// next round boundary). A frame larger than the whole budget passes
	// only on an untouched round (spent 0) and then consumes it all — the
	// same oversized-frame rule the release loop applies, so a message
	// can never be too big to ever leave the NIC. A down sender skips
	// these gates: its NIC is dead, so nothing defers on its behalf, and
	// the post-cap half drops the message as a dead link (charged).
	limit, capped := p.caps[msg.From]
	if !p.down[msg.From] && (len(p.queues[msg.From]) > 0 ||
		capped && p.spent[msg.From] > 0 && p.spent[msg.From]+size > limit) {
		if lent {
			msg.Payload = bytes.Clone(msg.Payload)
		}
		p.enqueue(msg)
		return OutcomeQueued, 0
	}
	p.spent[msg.From] += size
	return p.admitPostCap(msg, size)
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

// admitPostCap is the post-cap half of the plane, with p.mu held and the
// first attempt already spent from the sender's budget: the drop
// predicate, then dead links, then scripted loss. Each lost attempt is
// spent from the budget and retried, up to maxAttempts in all. Every
// outcome it returns left the NIC, so the sender is charged copies × size
// on each.
func (p *FaultPlane) admitPostCap(msg Message, size uint64) (Outcome, int) {
	outcome, copies := OutcomePass, 1
	if (p.drop != nil && p.drop(msg)) || p.linkDead(msg) {
		outcome = OutcomeDropped
	} else if p.lossRate > 0 {
		key := lossKey{msg.From, msg.To, msg.Kind, size}
		nth := p.nth[key]
		p.nth[key]++
		for p.lost(key, nth, copies) {
			if copies == maxAttempts {
				outcome = OutcomeDropped
				break
			}
			copies++
			p.spent[msg.From] += size
			p.retransmitted++
			p.o.retransmitted.Inc()
		}
	}
	out := p.account(msg.From)
	out.BytesOut += uint64(copies) * size
	out.MsgsOut += uint64(copies)
	if outcome == OutcomeDropped {
		p.dropped++
		p.o.dropped.Inc()
	} else {
		p.o.admitted.Inc()
	}
	return outcome, copies
}

// lost reports, with p.mu held, whether attempt k (from 1) of the round's
// nth message with this loss key is lost: whether the seed, the plane
// round, the key, nth and k hash below the loss rate.
func (p *FaultPlane) lost(key lossKey, nth uint64, k int) bool {
	h := p.seed
	for _, v := range [...]uint64{p.round, uint64(key.from), uint64(key.to), uint64(key.kind), key.size, nth, uint64(k)} {
		h = model.Hash64((h ^ v) + lossHashMix)
	}
	return float64(h>>11)/(1<<53) < p.lossRate
}

// account returns id's ledger entry, creating it, with p.mu held.
func (p *FaultPlane) account(id model.NodeID) *Traffic {
	tr := p.traffic[id]
	if tr == nil {
		tr = &Traffic{}
		p.traffic[id] = tr
	}
	return tr
}

// linkDead reports, with p.mu held, whether msg's link cannot carry it: an
// end is down, or a partition separates the ends.
func (p *FaultPlane) linkDead(msg Message) bool {
	return p.down[msg.From] || p.down[msg.To] ||
		(p.partition != nil && p.partition[msg.From] != p.partition[msg.To])
}

// Arrive is the receive side of an admitted message: it rechecks the link
// — a message admitted at send time but arriving after its link
// partitioned or either end went down is discarded and counted here — and
// otherwise charges the receiver once and reports true. It never decides
// loss — that happens exactly once, at admission — so send-side and
// receive-side application cannot lose a message twice. A destination
// that unregistered while the message travelled is still charged: the
// bytes reached its NIC.
func (p *FaultPlane) Arrive(msg Message) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.linkDead(msg) {
		p.dropped++
		p.o.dropped.Inc()
		return false
	}
	in := p.account(msg.To)
	in.BytesIn += uint64(msg.WireSize())
	in.MsgsIn++
	return true
}

// refund returns an admitted send that never left the NIC — a TCP dial or
// write failure after admission — to the sender: copies × size bytes of
// traffic and of round budget, every copy admission charged.
func (p *FaultPlane) refund(id model.NodeID, copies int, size uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	bytes := uint64(copies) * size
	if tr := p.traffic[id]; tr != nil && tr.BytesOut >= bytes && tr.MsgsOut >= uint64(copies) {
		tr.BytesOut -= bytes
		tr.MsgsOut -= uint64(copies)
	}
	if p.spent[id] >= bytes {
		p.spent[id] -= bytes
	}
}

// TrafficOf returns the cumulative traffic snapshot of a node.
func (p *FaultPlane) TrafficOf(id model.NodeID) Traffic {
	p.mu.Lock()
	defer p.mu.Unlock()
	if tr, ok := p.traffic[id]; ok {
		return *tr
	}
	return Traffic{}
}

// TotalTraffic sums every node's ledger entry.
func (p *FaultPlane) TotalTraffic() Traffic {
	p.mu.Lock()
	defer p.mu.Unlock()
	var total Traffic
	for _, tr := range p.traffic {
		total.Add(*tr)
	}
	return total
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
	// Addressable reports whether id could be registered and reached: a
	// node whose id has no address would be a member nobody can send to.
	Addressable(id model.NodeID) bool
	// Faults returns the network's fault plane, which keeps its counters
	// and traffic ledger.
	Faults() *FaultPlane
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
