package core

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"slices"
	"sync"

	"repro/internal/hhash"
	"repro/internal/judicial"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pki"
	"repro/internal/transport"
	"repro/internal/update"
	"repro/internal/wire"
)

// pendingItem is one entry of the multiset a node must forward next round:
// the forwardable updates it received this round, with their reception
// multiplicities (§V-D).
type pendingItem struct {
	upd   update.Update
	count uint64
	// embed caches hhash.Embed(upd.CanonicalBytes()) — the update-sized
	// modular reduction every serve, buffermap and acknowledgement
	// computation starts from. Shared read-only with the update store's
	// entry.
	embed *big.Int
}

// recvExchange is the receiver-side state of one predecessor exchange
// during the current round (this node as B of Fig 5).
type recvExchange struct {
	pred  model.NodeID
	prime hhash.Key
	// served marks that the predecessor's Serve has been accepted; exp
	// and fwd then hold the embedded products (∏ u^c mod M) of its
	// expiring and forwardable lists.
	served   bool
	exp, fwd hhash.Fold
	// kPrevA is K(R-1,A) from the Serve: the acknowledgement key.
	kPrevA hhash.Key
	// attBytes is the predecessor's marshalled signed Attestation and
	// ackBytes this node's marshalled signed Ack (message 5 / copy 6),
	// both in the node's evidence buffer (Node.keep).
	attBytes []byte
	ackBytes []byte
	// reported marks that messages 6–7 went to the designated monitor.
	reported bool
}

// recvRound aggregates receiver-side state for one round.
type recvRound struct {
	// preds holds one record per predecessor exchange, those with a prime
	// in the order their primes were issued, which is what K(R,B), the
	// remainders, the monitor reports and the self-digest read them in. A
	// record without one (a probed Serve that came before its KeyRequest)
	// is in no product and in no report.
	preds []recvExchange
}

// exchange returns pred's record, or nil: a scan of at most the in-degree.
func (rr *recvRound) exchange(pred model.NodeID) *recvExchange {
	for i := range rr.preds {
		if rr.preds[i].pred == pred {
			return &rr.preds[i]
		}
	}
	return nil
}

// open appends a record for pred, reusing the reset slot past the list's
// end when its array has one.
func (rr *recvRound) open(pred model.NodeID) *recvExchange {
	rr.preds = slices.Grow(rr.preds, 1)[:len(rr.preds)+1]
	ex := &rr.preds[len(rr.preds)-1]
	ex.pred = pred
	return ex
}

// moveLast moves ex, a record of the list, behind every other one and
// returns it at its new place.
func (rr *recvRound) moveLast(ex *recvExchange) *recvExchange {
	i := slices.IndexFunc(rr.preds, func(e recvExchange) bool { return e.pred == ex.pred })
	moved := *ex
	rr.preds = append(slices.Delete(rr.preds, i, i+1), moved)
	return &rr.preds[len(rr.preds)-1]
}

// reset empties the list in place for the next round, keeping each
// record's product storage and dropping everything else it points at.
func (rr *recvRound) reset() {
	for i := range rr.preds {
		ex := &rr.preds[i]
		ex.exp.Reset()
		ex.fwd.Reset()
		*ex = recvExchange{exp: ex.exp, fwd: ex.fwd}
	}
	rr.preds = rr.preds[:0]
}

// productKey returns K(R,B): the product of every prime issued this round.
func (rr *recvRound) productKey() hhash.Key {
	return rr.remainderFor(model.NoNode)
}

// remainderFor returns ∏_{k≠j} p_k for the given predecessor.
func (rr *recvRound) remainderFor(pred model.NodeID) hhash.Key {
	k := hhash.OneKey()
	for i := range rr.preds {
		if ex := &rr.preds[i]; ex.pred != pred && !ex.prime.IsZero() {
			k = k.Mul(ex.prime)
		}
	}
	return k
}

// early is a message of a round the node has not begun, kept with its round.
type early struct {
	round model.Round
	msg   transport.Message
}

// sendExchange is the sender-side state of one successor exchange (this
// node as A of Fig 5). Its byte slices are views of the node's evidence
// buffer (Node.keep). The Serve itself is not kept: nServed and refs
// record what it carried, and serveOf rebuilds it byte for byte from
// them, the round's items and kPrev when it has to go into an accusation.
type sendExchange struct {
	succ     model.NodeID
	served   bool
	acked    bool
	ackBytes []byte
	attBytes []byte
	accused  bool
	skipped  bool // behaviour-injected skip
	// nServed is how many of sendRound.items the Serve carried — fewer
	// for a DropUpdates deviator — and refs[i] whether item i went as a
	// ref; a refs shorter than nServed leaves the rest full. refs keeps
	// its array across rounds with its record.
	nServed int
	refs    []bool
	// slot is the slot of the round in which this exchange opens
	// (membership.Directory.ExchangeSlot).
	slot int
}

// sendRound aggregates sender-side state for one round.
type sendRound struct {
	items []pendingItem
	// kPrev is K(R-1, self), the key successors acknowledge under, and
	// kPrevBytes its encoding once a Serve of the round has carried it.
	kPrev      hhash.Key
	kPrevBytes []byte
	// exp and fwd are the round's served set folded once (foldServed):
	// the embedded products of its expiring and forwardable items.
	exp, fwd hhash.Fold
	// expectedAckH is H(∏ items u^c)_(kPrev,M); every honest successor's
	// Ack must carry exactly this value.
	expectedAckH *big.Int
	// succs holds one record per successor of the round, in directory
	// order (ascending ids): the order KeyRequests go out in within a slot.
	succs []sendExchange
}

// exchange returns succ's record, or nil: a scan of at most the fanout.
func (sr *sendRound) exchange(succ model.NodeID) *sendExchange {
	for i := range sr.succs {
		if sr.succs[i].succ == succ {
			return &sr.succs[i]
		}
	}
	return nil
}

// reset empties the round in place for the next one, keeping each
// record's refs array and the folds' storage and dropping everything else
// the records point at. The forward set is BeginRound's to swap.
func (sr *sendRound) reset() {
	for i := range sr.succs {
		ex := &sr.succs[i]
		*ex = sendExchange{refs: ex.refs[:0]}
	}
	sr.succs = sr.succs[:0]
	sr.kPrevBytes = nil
	sr.exp.Reset()
	sr.fwd.Reset()
}

// Node is one PAG participant. It is not safe for concurrent use: its
// driver steps it and delivers its messages from one goroutine at a time
// (every transport delivers on the goroutine that drains it).
type Node struct {
	// cfg holds the per-node dependencies (identity, endpoint, behaviour,
	// callbacks); everything session-wide lives once in sh (cfg.Shared) —
	// the flyweight split that lets 10⁵ nodes share one config plane.
	cfg    Config
	sh     *Shared
	id     model.NodeID
	hasher *hhash.Hasher
	hops   hhash.Counter
	// pool issues exchange primes, drawn from crypto/rand and pregenerated
	// off the critical path.
	pool *hhash.PrimePool

	store *update.Store
	round model.Round

	// next accumulates the forwardable receptions of the current round,
	// nextAt indexing it by update; BeginRound swaps it with
	// sendRound.items, whose array it then fills afresh.
	next   []pendingItem
	nextAt map[model.UpdateID]int
	// recv and send are the round's exchanges, reset in place at every
	// BeginRound.
	recv recvRound
	send sendRound
	// kPrev is carried across rounds.
	kPrev hhash.Key

	// injected holds source-minted updates awaiting the next round.
	injected []update.Update

	// deferred buffers next-round messages that arrived early (phase
	// skew is normal over a real network) for replay at BeginRound.
	deferred []early

	mon *monitorState

	stats Stats

	// trace is the optional round-event tracer (copied from sh for the
	// hot-path nil check).
	trace *obs.Tracer

	// evidence holds the round's signed exchange messages that the node
	// keeps (keep): its own and its peers' Attestations and Acks. Nothing
	// else holds a view of it — every send of those bytes is lent, and a
	// monitor keeps a copy of its own — so BeginRound rewrites it from the
	// start, as it resets the exchange records that point into it.
	evidence []byte

	// lifted receives the lifts whose value is encoded at once, expected
	// the one maybeAck compares beside it, and decoded the hash values
	// read off a message and used before its handler returns
	// (hhash.Params.DecodeValue).
	lifted, expected big.Int
	decoded          [2]big.Int

	// shells are what admission decodes each arrival into (admit.go),
	// out the messages the node builds, and live the store entries a
	// buffermap tags: storage the node reuses, holding nothing between
	// uses.
	shells shells
	out    outgoing
	live   []*update.Entry
}

// outgoing holds the messages a node builds, one of each kind it sends in
// every round but the Serve (borrowed from servePool): each is filled,
// sealed and emptied in one go, so none holds anything between sends and a
// send allocates no message.
type outgoing struct {
	keyRequest wire.KeyRequest
	att        wire.Attestation
	ack        wire.Ack
	attForward wire.AttForward
	digest     wire.NodeDigest
	share      wire.HashShare
	relay      wire.AckRelay
	// values holds the hash values encoded for the message being built
	// (encodeValue); each builder rewinds it first.
	values []byte
}

// maxWireKind bounds the per-kind counter table (wire kinds are 1-based
// and dense).
const maxWireKind = wire.KindAckExhibit

// NewNode builds a PAG node from a validated Config.
func NewNode(cfg Config) (*Node, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sh := cfg.Shared
	pool, err := hhash.NewPrimePool(rand.Reader, sh.primeBits)
	if err != nil {
		return nil, fmt.Errorf("core: node %v: %w", cfg.ID, err)
	}
	n := &Node{
		cfg:    cfg,
		sh:     sh,
		id:     cfg.ID,
		pool:   pool,
		store:  update.NewStore(),
		nextAt: make(map[model.UpdateID]int),
		kPrev:  hhash.OneKey(),
	}
	n.hasher = hhash.NewHasher(sh.HashParams, &n.hops)
	if sh.Metrics != nil {
		n.hasher.Instrument(sh.liftHist)
	}
	n.trace = sh.Trace
	n.mon = newMonitorState(n)
	return n, nil
}

// ID returns the node's identifier.
func (n *Node) ID() model.NodeID { return n.id }

// Round returns the node's current round.
func (n *Node) Round() model.Round {
	return n.round
}

// Stats returns a snapshot of the node's counters.
func (n *Node) Stats() Stats {
	s := n.stats
	s.HashOps = n.hops.HashOps()
	s.SigOps = n.cfg.Identity.Counter().Signs()
	return s
}

// Retire releases what a node that has left its session no longer needs —
// the update store, the round state and forward set, the monitor
// bookkeeping, the prime pool and the storage it decodes and builds
// messages in — and keeps what is
// still read from a departed node: its counters and its behaviour. A
// retired node is not stepped and receives nothing.
func (n *Node) Retire() {
	n.store = update.NewStore()
	n.next, n.nextAt = nil, make(map[model.UpdateID]int)
	n.recv, n.send = recvRound{}, sendRound{}
	n.injected, n.deferred = nil, nil
	n.mon = newMonitorState(n)
	n.pool = nil
	n.evidence = nil
	n.shells, n.out, n.live = shells{}, outgoing{}, nil
}

// Store exposes the node's update store (read-mostly; used by the
// application layer and tests).
func (n *Node) Store() *update.Store { return n.store }

// SetBehavior swaps the node's deviation profile. Call it at a round
// boundary — it is the scenario engine's adversary-activation hook (a node
// that "tampers with its software" mid-session, §II-A).
func (n *Node) SetBehavior(b Behavior) {
	n.cfg.Behavior = b
}

// Behavior returns the node's current deviation profile.
func (n *Node) Behavior() Behavior {
	return n.cfg.Behavior
}

// InjectUpdates queues source-minted updates for dissemination at the next
// BeginRound. Only meaningful on source nodes.
func (n *Node) InjectUpdates(us []update.Update) {
	n.injected = append(n.injected, us...)
}

func (n *Node) report(v judicial.Verdict) {
	if n.cfg.Verdicts != nil {
		v.Reporter = n.id
		n.cfg.Verdicts(v)
	}
}

// ---------------------------------------------------------------------------
// Round phases
// ---------------------------------------------------------------------------

// BeginRound rotates the per-round state and opens the slot-0 exchanges of
// round r by sending their KeyRequests (Fig 5, message 1); OpenSlot sends
// the rest. A node contacts all its successors every round — even with an
// empty forward set — which is what makes R1/R2 verifiable.
func (n *Node) BeginRound(r model.Round) {
	n.round = r

	// Reset last round's records in place, and with them the evidence
	// buffer they point into. A reset zeroes what a record or item would
	// keep pointing at (payload, signature, embedding): nothing outlives
	// its round because a slot happens not to be reused.
	send := &n.send
	send.reset()
	n.recv.reset()
	wire.PoisonOnRelease(n.evidence)
	n.evidence = n.evidence[:0]

	// Last round's receptions become this round's forward set, and the
	// old forward set's array, emptied, the next one's.
	clear(send.items)
	send.items, n.next = n.next, send.items[:0]
	clear(n.nextAt)
	slices.SortFunc(send.items, func(a, b pendingItem) int { return a.upd.ID.Compare(b.upd.ID) })

	// Source-minted updates enter the forward set with multiplicity 1,
	// under a fresh private key so acknowledgements stay unlinkable.
	if len(n.injected) > 0 {
		for _, u := range n.injected {
			// The source publishes its minted content to the interner, so
			// every receiver's store aliases one session-wide copy.
			u = n.sh.Intern.Canonical(u)
			n.store.Add(u, r, 1)
			send.items = append(send.items, pendingItem{upd: u, count: 1, embed: n.embedOf(n.store.Get(u.ID))})
		}
		n.injected = nil
		if fresh, err := n.pool.Get(); err == nil {
			n.kPrev = n.kPrev.Mul(fresh)
		}
	}
	send.kPrev = n.kPrev
	n.foldServed()

	n.mon.beginRound(r)

	// A rotation dodger skips all serves exactly in the rounds whose
	// membership epoch moved, where a newly seated monitor of it has no
	// baseline to check them against.
	dodge := n.cfg.Behavior.SkipServeOnRotation && r > 1 &&
		n.sh.Directory.MonitorEpoch(r) != n.sh.Directory.MonitorEpoch(r-1)

	// Set up the exchange with every successor and open those of slot 0.
	succs := n.sh.Directory.Successors(n.id, r)
	send.succs = slices.Grow(send.succs, len(succs))[:len(succs)]
	for i, succ := range succs {
		ex := &send.succs[i]
		ex.succ = succ
		ex.slot, _ = n.sh.Directory.ExchangeSlot(n.id, succ, r)
		ex.skipped = dodge
		if b := n.cfg.Behavior.SkipServeEvery; b > 0 && (int(r)+i)%b == 0 {
			ex.skipped = true
		}
	}
	n.openSlot(0)
	if n.trace != nil {
		// One span per successor exchange, opened whether or not the
		// behaviour skipped the serve — a skipped exchange still closes
		// with outcome "skipped" at CloseRound.
		for _, succ := range succs {
			n.trace.Emit("exchange",
				obs.XID(model.ExchangeID(r, n.id, succ)), obs.Span(obs.SpanOpen),
				obs.F("round", r), obs.F("from", n.id), obs.F("to", succ),
				obs.F("items", len(send.items)))
		}
	}

	// Replay messages of this round that arrived before it began
	// (normal phase skew over a real network).
	replay := n.deferred
	n.deferred = nil
	for _, e := range replay {
		if e.round == r {
			n.handle(e.msg)
		}
	}
}

// ExchangeSlots returns how many slots the exchange phase of a round has:
// the fanout. BeginRound is slot 0; a driver calls OpenSlot for slots 1 to
// ExchangeSlots()−1, letting each slot's traffic settle before the next.
func (n *Node) ExchangeSlots() int { return n.sh.Directory.Fanout() }

// OpenSlot opens the exchanges of slot k of round r (k ≥ 1; BeginRound
// opened slot 0). A successor's predecessors contact it one slot after the
// other, in the order of their ids, so the buffermap it answers each with
// already covers what the earlier ones served (§V-D) and a payload reaches
// it from one of them only. Nobody waits on anybody: a slot opens on the
// driver's schedule whether or not the earlier exchanges completed.
func (n *Node) OpenSlot(r model.Round, k int) {
	if r == n.round {
		n.openSlot(k)
	}
}

// openSlot sends the KeyRequests of the current round's slot-k exchanges.
func (n *Node) openSlot(k int) {
	for _, ex := range n.send.succs {
		if ex.slot == k && !ex.skipped {
			n.out.keyRequest = wire.KeyRequest{Round: n.round, From: n.id, To: ex.succ}
			n.signAndSend(ex.succ, &n.out.keyRequest)
		}
	}
	n.out.keyRequest = wire.KeyRequest{}
}

// MidRound runs after the exchange messages of the round have quiesced:
// the node reports each received exchange to one designated monitor
// (Fig 6, messages 6–7), publishes its self-digest (§V-B), raises
// accusations for missing acknowledgements (§IV-A), and the monitor role
// finalises nothing yet.
func (n *Node) MidRound(r model.Round) {
	n.flushMonitorReports(r)
	n.raiseAccusations(r)
}

// EndRound first flushes monitor reports for exchanges that completed late
// (through the probe path) so they still enter the round's obligation, then
// lets the monitor role verify its monitored nodes: forwarding checks
// against round r-1 obligations, digest cross-checks, and investigation
// requests for missing acknowledgements.
func (n *Node) EndRound(r model.Round) {
	n.flushMonitorReports(r)
	n.publishDigest(r)
	if !n.cfg.Behavior.SilentMonitor {
		n.mon.verify(r)
	}
}

// CloseRound judges pending investigations, delivers playback-ready
// updates, promotes K(R) → kPrev and garbage-collects.
func (n *Node) CloseRound(r model.Round) {
	if !n.cfg.Behavior.SilentMonitor {
		n.mon.judge(r)
	}

	// Deliver everything whose playback deadline has arrived.
	for _, e := range n.store.Undelivered(r) {
		e.Delivered = true
		n.stats.UpdatesDelivered++
		if n.cfg.OnDeliver != nil {
			n.cfg.OnDeliver(e.Update)
		}
	}

	// K(R, self) becomes the serving key of round r+1.
	n.kPrev = n.recv.productKey()

	if r > update.RetentionRounds {
		n.store.DropBefore(r - update.RetentionRounds)
	}
	n.mon.gc(r)
	n.stats.RoundsRun++

	if n.trace != nil {
		// Close this round's exchange spans with their terminal outcome, in
		// ascending successor order. Churn and evictions only land between
		// rounds (round-top hooks), so a node that opened spans at
		// BeginRound always reaches this close in the same round.
		for i := range n.send.succs {
			ex := &n.send.succs[i]
			outcome := "unresolved"
			switch {
			case ex.skipped:
				outcome = "skipped"
			case ex.acked:
				outcome = "acked"
			case ex.accused:
				outcome = "accused"
			}
			n.trace.Emit("exchange",
				obs.XID(model.ExchangeID(r, n.id, ex.succ)), obs.Span(obs.SpanClose),
				obs.F("round", r), obs.F("from", n.id), obs.F("to", ex.succ),
				obs.Outcome(outcome))
		}
	}
}

// ---------------------------------------------------------------------------
// Message dispatch
// ---------------------------------------------------------------------------

// HandleMessage is the transport handler. It counts the message by kind and
// admits it by its kind's rule (admit.go) before any handler runs: one that
// fails admission is dropped, or raises BadMessage where its rule says so,
// and a Byzantine sender cannot stall the round. An exchange message of the
// next round (phase skew over a real network), or of any round while the
// node has begun none (a joiner whose peers reached its join round first),
// is kept and admitted again at BeginRound; one of another round than the
// one begun then is dropped. A monitor message is admitted only about a
// round at most monitorKeep behind the node's and one ahead of it.
func (n *Node) HandleMessage(msg transport.Message) {
	if msg.Kind <= maxWireKind {
		n.sh.msgK[msg.Kind].Inc()
		n.sh.bytesK[msg.Kind].Add(uint64(msg.WireSize()))
	}
	n.handle(msg)
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

// signAndSend signs m and transmits it to one peer.
func (n *Node) signAndSend(to model.NodeID, m wire.BodyMessage) {
	n.signAndSendAll([]model.NodeID{to}, m)
}

// signAndSendAll encodes and signs m once, in a pooled buffer, and lends
// those bytes to every peer (transport.SendLent: one copy shared by the
// whole fan-out where the Endpoint keeps what it is sent, none where it
// copies).
func (n *Node) signAndSendAll(peers []model.NodeID, m wire.BodyMessage) {
	w := wire.GetWriter()
	defer w.Release()
	if payload, err := wire.Seal(w, m, n.cfg.Identity); err == nil {
		_ = transport.SendLent(n.cfg.Endpoint, m.Kind(), payload, peers...)
	}
}

// signKept seals m in a pooled buffer and keeps the signed bytes in the
// round's evidence buffer (keep): the form of a message the node sends
// and keeps as evidence (its Attestations and Acks). Every send of them
// is lent.
func (n *Node) signKept(m wire.BodyMessage) ([]byte, error) {
	w := wire.GetWriter()
	defer w.Release()
	payload, err := wire.Seal(w, m, n.cfg.Identity)
	if err != nil {
		return nil, err
	}
	return n.keep(payload), nil
}

// encodeValue appends v's wire encoding to the values of the message being
// built (outgoing.values) and returns it.
func (n *Node) encodeValue(v *big.Int) ([]byte, error) {
	start := len(n.out.values)
	enc, err := n.sh.HashParams.EncodeValue(n.out.values, v)
	if err != nil {
		return nil, err
	}
	n.out.values = enc
	return enc[start:len(enc):len(enc)], nil
}

// keep copies b into the node's evidence buffer and returns the copy,
// which is valid until the next BeginRound. The copy is capped at its
// length, so an append to it cannot run into the next one.
func (n *Node) keep(b []byte) []byte {
	start := len(n.evidence)
	n.evidence = append(n.evidence, b...)
	return n.evidence[start:len(n.evidence):len(n.evidence)]
}

// verifyUpdate checks the source signature of an update carrier served,
// encoding the canonical bytes into a pooled buffer.
func (n *Node) verifyUpdate(carrier model.NodeID, u *update.Update) bool {
	w := wire.GetWriter()
	defer w.Release()
	return n.verify(n.sh.Source, carrier, w.Canonical(u), u.SrcSig, "update source signature")
}

// verify checks signer's signature with op accounting; on failure a
// BadMessage verdict is raised against carrier, the node that handed the
// signed bytes over (the signer itself when it sent them).
func (n *Node) verify(signer, carrier model.NodeID, body, sig []byte, what string) bool {
	err := pki.VerifyCounted(n.sh.Suite, n.cfg.Identity.Counter(), signer, body, sig)
	if err != nil {
		n.report(judicial.Verdict{
			Round: n.round, Kind: VerdictBadMessage, Accused: carrier,
			Detail: fmt.Sprintf("bad signature on %s", what),
		})
		return false
	}
	return true
}

// encryptTo appends {m}_pk(to) to dst with op accounting.
func (n *Node) encryptTo(dst []byte, to model.NodeID, plaintext []byte) ([]byte, error) {
	return pki.EncryptCounted(n.sh.Suite, n.cfg.Identity.Counter(), dst, to, plaintext)
}

// encrypter is a node's wire.Encrypter: encryptTo.
type encrypter struct{ n *Node }

func (e encrypter) EncryptAppend(dst []byte, to model.NodeID, msg []byte) ([]byte, error) {
	return e.n.encryptTo(dst, to, msg)
}

// embed computes an update's embedding from its canonical bytes, encoded
// into a pooled buffer (Embed only reads them).
func (n *Node) embed(u *update.Update) *big.Int {
	w := wire.GetWriter()
	defer w.Release()
	return n.hasher.Embed(w.Canonical(u))
}

// embedOf returns the entry's cached embedding, computing and caching it
// on first use. Embeddings are pure functions of the update bytes and are
// only ever read afterwards (Tags, Lift and Combine never mutate their
// arguments), so one residue is safely shared across rounds, successors
// and the store entry itself, and, through the interner, across every
// node of the session. Embed carries no operation counters, which keeps
// the cache invisible to Table I accounting.
func (n *Node) embedOf(e *update.Entry) *big.Int {
	if e.Embed == nil {
		e.Embed = n.sh.Intern.SharedEmbed(e.Update, func() *big.Int {
			return n.embed(&e.Update)
		})
	}
	return e.Embed
}

// tagScratch is one exchange's buffermap batch: the embeddings
// onKeyRequest or serve gathers and the tags hhash.Hasher.Tags writes for
// them. Scratch is pooled across nodes, not kept per node: a node holds
// one only while it tags, where a buffer per node cost ~1 % of the live
// heap at N=432.
type tagScratch struct {
	embeds []*big.Int
	tags   []uint64
}

var tagScratchPool = sync.Pool{New: func() any { return new(tagScratch) }}

func getTagScratch() *tagScratch { return tagScratchPool.Get().(*tagScratch) }

// release returns the scratch to the pool, its embeddings cleared so it
// pins none; nothing may read the tags afterwards.
func (s *tagScratch) release() {
	clear(s.embeds)
	s.embeds = s.embeds[:0]
	tagScratchPool.Put(s)
}

// tagsOf returns the buffermap tags of s.embeds under prime: one
// hhash.Hasher.Tags batch.
func (n *Node) tagsOf(s *tagScratch, prime hhash.Key) []uint64 {
	s.tags = slices.Grow(s.tags[:0], len(s.embeds))[:len(s.embeds)]
	n.hasher.Tags(s.tags, s.embeds, prime)
	return s.tags
}

// maxServedCount bounds one served multiplicity. An honest one is a sum
// of receptions over an update's few rounds of life, nowhere near it; the
// bound keeps the uint64 sums built from served counts (a pending item's,
// a store entry's) from wrapping around to zero.
const maxServedCount = 1 << 32

// validServedCount reports whether a multiplicity read off the wire may
// enter the node's accounting.
func validServedCount(c uint64) bool { return c >= 1 && c <= maxServedCount }

// designatedMonitor picks which of B's monitors receives messages 6–7 for
// the exchange with predecessor pred during round r. The choice rotates
// deterministically "to prevent monitors from receiving all the products
// of the prime numbers" (§V-B); determinism lets the other monitors know
// whom to blame when the share never arrives.
func designatedMonitor(monitors []model.NodeID, pred model.NodeID, r model.Round) model.NodeID {
	if len(monitors) == 0 {
		return model.NoNode
	}
	idx := (uint64(pred)*31 + uint64(r)) % uint64(len(monitors))
	return monitors[idx]
}
