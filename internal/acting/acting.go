// Package acting implements the AcTinG baseline (Mokhtar, Decouchant et
// al., SRDS 2014) the paper compares against (§VII): an accountable — but
// not privacy-preserving — gossip protocol in which nodes log every
// interaction in a tamper-evident secure log and monitors periodically
// audit the logs.
//
// The dissemination side is pull-based: nodes propose the identifiers of
// fresh updates to their successors, successors request what they miss,
// and data travels at most once per link — this is why AcTinG is cheaper
// than PAG ("AcTinG is less costly because nodes can refuse updates, and
// it is then controlled using their log during audits", §VII-B). The price
// is privacy: update identifiers appear in clear in proposals and logs,
// so any monitor learns the node's interests.
//
// Audits verify: hash-chain integrity from the previously audited head
// (which also catches history rewriting), proposal coverage (a proposal
// logged to every successor of every round), serve compliance (every
// logged request answered with data the same round) and complaints filed
// by peers whose requests went unanswered.
//
// A node keeps only the part of its log that some current monitor has yet
// to verify: an audit request names the last seq its sender verified, and
// the node drops the prefix every one of its current monitors has verified
// (Node.retain). A monitor seated after such a truncation asks from below
// the log's base and is answered with the retained suffix and the base it
// chains from, which it adopts as it would have adopted the genesis chain.
package acting

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/judicial"
	"repro/internal/membership"
	"repro/internal/model"
	"repro/internal/pki"
	"repro/internal/securelog"
	"repro/internal/transport"
	"repro/internal/update"
)

// DefaultAuditPeriod is how many rounds pass between audits.
const DefaultAuditPeriod = 5

// Message kinds (own namespace; AcTinG nodes never talk to PAG nodes).
const (
	kindPropose      uint8 = 101
	kindRequest      uint8 = 102
	kindData         uint8 = 103
	kindComplaint    uint8 = 104
	kindAuditRequest uint8 = 105
	kindAuditReply   uint8 = 106
	// kindAuditBaseReply answers a request from below the log's base: the
	// retained suffix plus the base it chains from.
	kindAuditBaseReply uint8 = 107
)

// Audit verdict kinds.
const (
	// VerdictTamperedLog: the fetched suffix fails chain verification
	// (including rewrites of already-audited history).
	VerdictTamperedLog judicial.Kind = "TamperedLog"
	// VerdictMissingPropose: no proposal logged for a successor slot.
	VerdictMissingPropose judicial.Kind = "MissingPropose"
	// VerdictUnservedRequest: a logged (or complained-about) request was
	// not answered with data in the same round.
	VerdictUnservedRequest judicial.Kind = "UnservedRequest"
	// VerdictRefusedAudit: the node did not answer the audit request.
	VerdictRefusedAudit judicial.Kind = "RefusedAudit"
)

// Behavior injects selfish deviations.
type Behavior struct {
	// FreeRide: receive but never serve data (requests go unanswered).
	FreeRide bool
	// SkipPropose: never propose to successors (saves upload entirely).
	SkipPropose bool
	// TamperLog: rewrite a log entry after the fact.
	TamperLog bool
	// RefuseAudit: ignore audit requests.
	RefuseAudit bool
}

// BehaviorForProfile maps a protocol-agnostic deviation profile name (the
// scenario vocabulary, see core.BehaviorForProfile) onto AcTinG's
// deviation knobs; ok is false for unknown profiles. AcTinG's audits have
// no blind round at a membership transition to dodge into, so a
// rotation-dodger degenerates to the plain free-rider.
func BehaviorForProfile(profile string) (b Behavior, ok bool) {
	switch profile {
	case "correct":
		return Behavior{}, true
	case "free-rider", "rotation-dodger":
		return Behavior{SkipPropose: true}, true
	case "colluder":
		return Behavior{RefuseAudit: true}, true
	default:
		return Behavior{}, false
	}
}

// Config assembles an AcTinG node.
type Config struct {
	ID        model.NodeID
	Suite     pki.Suite
	Identity  pki.Identity
	Directory *membership.Directory
	Endpoint  transport.Endpoint
	// Source is the session's one source and the signer of every update.
	Source model.NodeID
	// Intern is the session-wide update-content flyweight table; nil keeps
	// a private copy of every stored update per node.
	Intern      *update.Interner
	AuditPeriod int // DefaultAuditPeriod if 0
	Behavior    Behavior
	Verdicts    func(judicial.Verdict)
	OnDeliver   func(update.Update)
}

// auditState is a monitor's memory of one monitored node.
type auditState struct {
	lastSeq   uint64
	lastHead  [securelog.HashSize]byte
	lastRound model.Round
	// pending marks an unanswered audit request (round it was sent).
	pending model.Round
	waiting bool
	// complaints accumulated since the last audit.
	complaints []complaint
}

type complaint struct {
	round model.Round
	from  model.NodeID
	ids   []model.UpdateID
}

// Node is one AcTinG participant.
type Node struct {
	cfg   Config
	id    model.NodeID
	log   *securelog.Log
	store *update.Store
	round model.Round

	// fresh are the update ids first received last round (proposal set).
	fresh     []model.UpdateID
	freshNext map[model.UpdateID]bool

	// requestedFrom tracks ids requested from a peer this round, to
	// detect unserved requests and file complaints; requested is the set
	// of all of them, so each id is requested from one proposer a round.
	requestedFrom map[model.NodeID][]model.UpdateID
	requested     map[model.UpdateID]bool

	monitored []model.NodeID
	monValid  bool
	monEpoch  int
	audits    map[model.NodeID]*auditState

	// verified[m] is the highest SinceSeq monitor m's audit requests have
	// carried: the prefix of this node's log m has verified (see retain).
	verified map[model.NodeID]uint64

	injected []update.Update
	stats    Stats
}

// Stats summarises an AcTinG node's activity.
type Stats struct {
	RoundsRun        uint64
	UpdatesDelivered uint64
	UpdatesReceived  uint64
	AuditsPerformed  uint64
	ComplaintsSent   uint64
}

// NewNode builds an AcTinG node.
func NewNode(cfg Config) (*Node, error) {
	if cfg.ID == model.NoNode {
		return nil, fmt.Errorf("acting: node id must not be NoNode")
	}
	if cfg.Suite == nil || cfg.Identity == nil || cfg.Directory == nil || cfg.Endpoint == nil {
		return nil, fmt.Errorf("acting: node %v is missing dependencies", cfg.ID)
	}
	if cfg.AuditPeriod == 0 {
		cfg.AuditPeriod = DefaultAuditPeriod
	}
	return &Node{
		cfg:           cfg,
		id:            cfg.ID,
		log:           securelog.New(cfg.ID),
		store:         update.NewStore(),
		freshNext:     make(map[model.UpdateID]bool),
		requestedFrom: make(map[model.NodeID][]model.UpdateID),
		requested:     make(map[model.UpdateID]bool),
		audits:        make(map[model.NodeID]*auditState),
		verified:      make(map[model.NodeID]uint64),
	}, nil
}

// ID implements sim.Protocol.
func (n *Node) ID() model.NodeID { return n.id }

// Stats returns a snapshot of the node's counters.
func (n *Node) Stats() Stats { return n.stats }

// Log exposes the node's secure log (used by tests and fault injection).
func (n *Node) Log() *securelog.Log { return n.log }

// InjectUpdates queues source updates for the next round.
func (n *Node) InjectUpdates(us []update.Update) {
	n.injected = append(n.injected, us...)
}

// SetBehavior swaps the node's deviation profile at a round boundary —
// the scenario engine's adversary-activation hook.
func (n *Node) SetBehavior(b Behavior) { n.cfg.Behavior = b }

// Behavior returns the node's current deviation profile.
func (n *Node) Behavior() Behavior { return n.cfg.Behavior }

func (n *Node) report(v judicial.Verdict) {
	if n.cfg.Verdicts != nil {
		v.Reporter = n.id
		n.cfg.Verdicts(v)
	}
}

// BeginRound promotes last round's receptions into the proposal set and
// proposes to all successors.
func (n *Node) BeginRound(r model.Round) {
	n.round = r
	n.fresh = n.fresh[:0]
	for id := range n.freshNext {
		n.fresh = append(n.fresh, id)
	}
	slices.SortFunc(n.fresh, model.UpdateID.Compare)
	n.freshNext = make(map[model.UpdateID]bool)
	n.requestedFrom = make(map[model.NodeID][]model.UpdateID)
	clear(n.requested)

	for _, u := range n.injected {
		if n.store.Add(n.cfg.Intern.Canonical(u), r, 1) {
			n.fresh = append(n.fresh, u.ID)
		}
	}
	n.injected = nil

	// Refresh the inverse monitor index whenever a membership transition
	// may have re-drawn the monitor sets.
	if epoch := n.cfg.Directory.MonitorEpoch(r); !n.monValid || epoch != n.monEpoch {
		n.monValid, n.monEpoch = true, epoch
		n.monitored = n.monitored[:0]
		for _, y := range n.cfg.Directory.MembersAt(r) {
			if y != n.id && n.cfg.Directory.IsMonitorOf(n.id, y, r) {
				n.monitored = append(n.monitored, y)
				if n.audits[y] == nil {
					n.audits[y] = &auditState{}
				}
			}
		}
	}

	if n.cfg.Behavior.SkipPropose {
		return
	}
	for _, succ := range n.cfg.Directory.Successors(n.id, r) {
		msg := &proposeMsg{Round: r, From: n.id, To: succ, IDs: n.fresh}
		n.signAndSend(succ, kindPropose, msg)
		n.logIDs(securelog.EntrySend, succ, "PROPOSE", n.fresh)
	}
}

// MidRound files complaints for requests that data never answered, in
// peer order, so the complaints leave in the same order every run.
func (n *Node) MidRound(r model.Round) {
	for _, peer := range slices.Sorted(maps.Keys(n.requestedFrom)) {
		ids := n.requestedFrom[peer]
		missing := ids[:0]
		for _, id := range ids {
			if !n.store.Has(id) {
				missing = append(missing, id)
			}
		}
		if len(missing) == 0 {
			continue
		}
		n.stats.ComplaintsSent++
		c := &complaintMsg{Round: r, From: n.id, Against: peer, IDs: missing}
		for _, m := range n.cfg.Directory.Monitors(peer, r) {
			n.signAndSend(m, kindComplaint, c)
		}
	}
}

// EndRound triggers audits on schedule.
func (n *Node) EndRound(r model.Round) {
	if int(r)%n.cfg.AuditPeriod != 0 {
		return
	}
	for _, y := range n.monitored {
		st := n.audits[y]
		st.waiting, st.pending = true, r
		req := &auditReqMsg{Round: r, From: n.id, SinceSeq: st.lastSeq}
		n.signAndSend(y, kindAuditRequest, req)
	}
}

// CloseRound judges unanswered audits and delivers playable updates.
func (n *Node) CloseRound(r model.Round) {
	if int(r)%n.cfg.AuditPeriod == 0 {
		for _, y := range n.monitored {
			st := n.audits[y]
			if st.waiting && st.pending == r {
				st.waiting = false
				n.report(judicial.Verdict{Round: r, Kind: VerdictRefusedAudit, Accused: y,
					Detail: "no reply to audit request"})
			}
		}
	}
	for _, e := range n.store.Undelivered(r) {
		e.Delivered = true
		n.stats.UpdatesDelivered++
		if n.cfg.OnDeliver != nil {
			n.cfg.OnDeliver(e.Update)
		}
	}
	if r > update.RetentionRounds {
		n.store.DropBefore(r - update.RetentionRounds)
	}
	n.stats.RoundsRun++
}
