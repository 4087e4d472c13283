package core

import (
	"bytes"
	"crypto/rand"
	"fmt"
	"math/big"
	"slices"
	"sort"
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
	prime hhash.Key
	// served marks that the predecessor's Serve has been accepted; exp
	// and fwd then hold the embedded products (∏ u^c mod M) of its
	// expiring and forwardable lists.
	served   bool
	exp, fwd hhash.Fold
	// kPrevA is K(R-1,A) from the Serve: the acknowledgement key.
	kPrevA hhash.Key
	// attBytes is the predecessor's marshalled signed Attestation.
	attBytes []byte
	// ackBytes is this node's marshalled signed Ack (message 5 / copy 6).
	ackBytes []byte
	// reported marks that messages 6–7 went to the designated monitor.
	reported bool
}

// recvRound aggregates receiver-side state for one round.
type recvRound struct {
	exchanges map[model.NodeID]*recvExchange
	// order preserves prime issuance order for deterministic remainders.
	order []model.NodeID
}

func newRecvRound() *recvRound {
	return &recvRound{exchanges: make(map[model.NodeID]*recvExchange)}
}

// productKey returns K(R,B): the product of every prime issued this round.
func (rr *recvRound) productKey() hhash.Key {
	k := hhash.OneKey()
	for _, pred := range rr.order {
		k = k.Mul(rr.exchanges[pred].prime)
	}
	return k
}

// remainderFor returns ∏_{k≠j} p_k for the given predecessor.
func (rr *recvRound) remainderFor(pred model.NodeID) hhash.Key {
	k := hhash.OneKey()
	for _, p := range rr.order {
		if p != pred {
			k = k.Mul(rr.exchanges[p].prime)
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
// node as A of Fig 5).
type sendExchange struct {
	served      bool
	acked       bool
	ackBytes    []byte
	serveCipher []byte
	attBytes    []byte
	accused     bool
	skipped     bool // behaviour-injected skip
	// slot is the slot of the round in which this exchange opens
	// (membership.Directory.ExchangeSlot).
	slot int
}

// sendRound aggregates sender-side state for one round.
type sendRound struct {
	items []pendingItem
	// kPrev is K(R-1, self), the key successors acknowledge under.
	kPrev hhash.Key
	// exp and fwd are the round's served set folded once (foldServed):
	// the embedded products of its expiring and forwardable items.
	exp, fwd hhash.Fold
	// expectedAckH is H(∏ items u^c)_(kPrev,M); every honest successor's
	// Ack must carry exactly this value.
	expectedAckH *big.Int
	// succs is the round's successor list in directory order — the order
	// KeyRequests go out in within a slot; perSucc is keyed by it.
	succs   []model.NodeID
	perSucc map[model.NodeID]*sendExchange
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

	// pendingNext accumulates the forwardable receptions of the current
	// round; it becomes sendRound.items at the next BeginRound.
	pendingNext map[model.UpdateID]*pendingItem
	// kNext is K(R, self), promoted to kPrev at the next BeginRound.
	recvCur *recvRound
	sendCur *sendRound
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

	// Round-scoped state is pooled across rounds (the flyweight arena):
	// at BeginRound the previous round's containers are cleared and kept
	// for reuse instead of reallocating. Only the container shells are
	// recycled — byte slices they referenced (acks, attestations, serve
	// ciphers) may still be in flight or held by monitors and are simply
	// re-pointed, never overwritten.
	recvFree *recvRound
	sendFree *sendRound
	rexFree  []*recvExchange
	sexFree  []*sendExchange
	itemFree []*pendingItem

	// lifted receives the lifts whose value is encoded at once.
	lifted big.Int
}

// maxWireKind bounds the per-kind counter table (wire kinds are 1-based
// and dense).
const maxWireKind = wire.KindObligationHandover

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
		cfg:         cfg,
		sh:          sh,
		id:          cfg.ID,
		pool:        pool,
		store:       update.NewStore(),
		pendingNext: make(map[model.UpdateID]*pendingItem),
		kPrev:       hhash.OneKey(),
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
// bookkeeping, the recycled shells and the prime pool — and keeps what is
// still read from a departed node: its counters and its behaviour. A
// retired node is not stepped and receives nothing.
func (n *Node) Retire() {
	n.store = update.NewStore()
	n.pendingNext = make(map[model.UpdateID]*pendingItem)
	n.recvCur = newRecvRound()
	n.sendCur = &sendRound{perSucc: make(map[model.NodeID]*sendExchange)}
	n.injected, n.deferred = nil, nil
	n.mon = newMonitorState(n)
	n.pool = nil
	n.recvFree, n.sendFree = nil, nil
	n.rexFree, n.sexFree, n.itemFree = nil, nil, nil
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

	// Recycle the previous round's container shells into the node's
	// free lists (see the Node field comment for the aliasing rules).
	var items []pendingItem
	if prev := n.sendCur; prev != nil {
		// Recycled shells are zeroed as they are parked, here and for
		// itemFree below: what they would keep pointing at (payload,
		// signature, embedding) must not outlive the round because a
		// slot happens not to be reused.
		clear(prev.items)
		items = prev.items[:0]
		for _, ex := range prev.perSucc {
			*ex = sendExchange{}
			n.sexFree = append(n.sexFree, ex)
		}
		clear(prev.perSucc)
		prev.exp.Reset()
		prev.fwd.Reset()
		*prev = sendRound{perSucc: prev.perSucc, exp: prev.exp, fwd: prev.fwd}
		n.sendFree = prev
		n.sendCur = nil
	}
	if prev := n.recvCur; prev != nil {
		for _, ex := range prev.exchanges {
			ex.exp.Reset()
			ex.fwd.Reset()
			*ex = recvExchange{exp: ex.exp, fwd: ex.fwd}
			n.rexFree = append(n.rexFree, ex)
		}
		clear(prev.exchanges)
		prev.order = prev.order[:0]
		n.recvFree = prev
		n.recvCur = nil
	}

	// Promote last round's receptions into this round's forward set.
	for _, it := range n.pendingNext {
		items = append(items, *it)
		*it = pendingItem{}
		n.itemFree = append(n.itemFree, it)
	}
	sort.Slice(items, func(i, j int) bool { return items[i].upd.ID.Less(items[j].upd.ID) })
	clear(n.pendingNext)

	// Source-minted updates enter the forward set with multiplicity 1,
	// under a fresh private key so acknowledgements stay unlinkable.
	if len(n.injected) > 0 {
		for _, u := range n.injected {
			// The source publishes its minted content to the interner, so
			// every receiver's store aliases one session-wide copy.
			u = n.sh.Intern.Canonical(u)
			n.store.Add(u, r, 1)
			items = append(items, pendingItem{upd: u, count: 1, embed: n.embedOf(n.store.Get(u.ID))})
		}
		n.injected = nil
		if fresh, err := n.pool.Get(); err == nil {
			n.kPrev = n.kPrev.Mul(fresh)
		}
	}

	send := n.sendFree
	if send == nil {
		send = &sendRound{perSucc: make(map[model.NodeID]*sendExchange)}
	} else {
		n.sendFree = nil
	}
	send.items = items
	send.kPrev = n.kPrev
	n.sendCur = send
	n.foldServed()
	if n.recvFree != nil {
		n.recvCur = n.recvFree
		n.recvFree = nil
	} else {
		n.recvCur = newRecvRound()
	}

	n.mon.beginRound(r)

	// A rotation dodger skips all serves exactly in the rounds whose
	// monitor epoch moved — the rounds the pre-handover forwarding check
	// could not cover.
	dodge := n.cfg.Behavior.SkipServeOnRotation && r > 1 &&
		n.sh.Directory.MonitorEpoch(r) != n.sh.Directory.MonitorEpoch(r-1)

	// Set up the exchange with every successor and open those of slot 0.
	succs := n.sh.Directory.Successors(n.id, r)
	send.succs = succs
	for i, succ := range succs {
		ex := n.newSendExchange()
		send.perSucc[succ] = ex
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
				obs.F("items", len(items)))
		}
	}

	// Replay messages of this round that arrived before the rotation
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
	if r == n.round && n.sendCur != nil {
		n.openSlot(k)
	}
}

// openSlot sends the KeyRequests of the current round's slot-k exchanges.
func (n *Node) openSlot(k int) {
	for _, succ := range n.sendCur.succs {
		if ex := n.sendCur.perSucc[succ]; ex.slot == k && !ex.skipped {
			n.signAndSend(succ, &wire.KeyRequest{Round: n.round, From: n.id, To: succ})
		}
	}
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
		// Judgement settled the round's suspect flags; if the monitor
		// epoch rotates at r+1, hand the accumulated obligations to the
		// incoming monitors before they are needed.
		n.mon.handover(r)
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
	n.kPrev = n.recvCur.productKey()

	if r > storeRetentionRounds {
		n.store.DropBefore(r - storeRetentionRounds)
	}
	n.mon.gc(r)
	// Serve ciphertexts are accusation evidence with a MidRound horizon
	// (raiseAccusations is their only reader); release them at round
	// close instead of letting the round's heaviest buffers idle until
	// the next BeginRound recycles the exchange shells.
	if sr := n.sendCur; sr != nil {
		for _, ex := range sr.perSucc {
			ex.serveCipher = nil
		}
	}
	n.stats.RoundsRun++

	if n.trace != nil && n.sendCur != nil {
		// Close this round's exchange spans with their terminal outcome.
		// Churn and evictions only land between rounds (round-top hooks),
		// so a node that opened spans at BeginRound always reaches this
		// close in the same round.
		succs := make([]model.NodeID, 0, len(n.sendCur.perSucc))
		for succ := range n.sendCur.perSucc {
			succs = append(succs, succ)
		}
		sort.Slice(succs, func(i, j int) bool { return succs[i] < succs[j] })
		for _, succ := range succs {
			ex := n.sendCur.perSucc[succ]
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
				obs.XID(model.ExchangeID(r, n.id, succ)), obs.Span(obs.SpanClose),
				obs.F("round", r), obs.F("from", n.id), obs.F("to", succ),
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

// signOwned is Seal into one exact-size heap slice: the form a signed
// message takes when the sender keeps it as evidence (attestations,
// acknowledgements) and sends those very bytes.
func (n *Node) signOwned(m wire.BodyMessage) ([]byte, error) {
	w := wire.GetWriter()
	defer w.Release()
	payload, err := wire.Seal(w, m, n.cfg.Identity)
	return bytes.Clone(payload), err
}

// verifyUpdate checks an update's source signature, encoding the
// canonical bytes into a pooled buffer.
func (n *Node) verifyUpdate(src model.NodeID, u *update.Update) bool {
	w := wire.GetWriter()
	defer w.Release()
	return n.verify(src, w.Canonical(u), u.SrcSig, "update source signature")
}

// verify checks a signature with op accounting; on failure a BadMessage
// verdict is raised against the claimed signer.
func (n *Node) verify(signer model.NodeID, body, sig []byte, what string) bool {
	err := pki.VerifyCounted(n.sh.Suite, n.cfg.Identity.Counter(), signer, body, sig)
	if err != nil {
		n.report(judicial.Verdict{
			Round: n.round, Kind: VerdictBadMessage, Accused: signer,
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

// newRecvExchange, newSendExchange and newPendingItem draw round-scoped
// shells from the node's free lists (filled by BeginRound's recycling
// pass), allocating only on pool misses.
func (n *Node) newRecvExchange() *recvExchange {
	if k := len(n.rexFree); k > 0 {
		ex := n.rexFree[k-1]
		n.rexFree = n.rexFree[:k-1]
		return ex
	}
	return &recvExchange{}
}

func (n *Node) newSendExchange() *sendExchange {
	if k := len(n.sexFree); k > 0 {
		ex := n.sexFree[k-1]
		n.sexFree = n.sexFree[:k-1]
		return ex
	}
	return &sendExchange{}
}

func (n *Node) newPendingItem(u update.Update, count uint64, embed *big.Int) *pendingItem {
	if k := len(n.itemFree); k > 0 {
		it := n.itemFree[k-1]
		n.itemFree = n.itemFree[:k-1]
		*it = pendingItem{upd: u, count: count, embed: embed}
		return it
	}
	return &pendingItem{upd: u, count: count, embed: embed}
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
