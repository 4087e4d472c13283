// Package core implements PAG, the paper's primary contribution: a gossip
// dissemination protocol that is accountable — selfish nodes that fail the
// obligation to receive (R1) or the obligation to forward (R2) are detected
// by a log-less monitoring infrastructure (§IV-A) — and partially
// privacy-preserving — monitors verify forwarding through homomorphic
// hashes without learning which updates are exchanged, and per-hop re-keying
// prevents tracking an update through the dissemination graph (§IV-B, P1).
//
// A Node plays three roles simultaneously, exactly as in the paper:
//
//   - sender (node A of Fig 5): each round it forwards everything it
//     received in the previous round to all its successors through the
//     KeyRequest → KeyResponse → Serve → Attestation → Ack exchange;
//   - receiver (node B of Fig 5): it hands out fresh prime exponents,
//     accepts updates, acknowledges under the sender's previous-round
//     product key, and reports each exchange to one designated monitor
//     (Fig 6, messages 6–7);
//   - monitor (Fig 6): it lifts attestations to K(R,B), shares them with
//     the other monitors (message 8), relays acknowledgements to the
//     sender's monitors (message 9), maintains per-monitored-node
//     obligations, and raises verdicts when verification fails.
//
// The engine is round-phased: the simulation driver (internal/sim) calls
// BeginRound, OpenSlot for each further exchange slot, MidRound, EndRound
// and CloseRound in order, delivering messages after each; the TCP
// deployment drives the same methods from a wall-clock ticker.
package core

import (
	"fmt"
	"io"

	"repro/internal/hhash"
	"repro/internal/judicial"
	"repro/internal/membership"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pki"
	"repro/internal/transport"
	"repro/internal/update"
)

// Default protocol parameters (§VII-A).
const (
	// DefaultPrimeBits is the size of the per-exchange prime exponents.
	DefaultPrimeBits = hhash.DefaultPrimeBits
	// storeRetentionRounds is how long delivered updates stay available
	// for buffermap matching and ref resolution before GC.
	storeRetentionRounds = 24
)

// VerdictKind classifies proofs of misbehaviour.
type VerdictKind int

// Verdict kinds, mapped to the deviations of §IV-A/§VI-B.
const (
	// VerdictWrongForward: a successor acknowledged a set that differs
	// from the node's obligation — R2 violated (partial or altered
	// forwarding).
	VerdictWrongForward VerdictKind = iota + 1
	// VerdictNoForward: no acknowledgement, no accusation, and the node
	// could not exhibit one when challenged — "it is considered guilty
	// because it did not accuse node B".
	VerdictNoForward
	// VerdictUnresponsive: the node ignored a monitor probe — R1
	// violated (refusal to receive / acknowledge).
	VerdictUnresponsive
	// VerdictBadAttestation: an attestation does not match the served
	// content (receiver-side detection).
	VerdictBadAttestation
	// VerdictDigestMismatch: the node's self-digest disagrees with the
	// monitors' accumulated obligation (§V-B cross-check).
	VerdictDigestMismatch
	// VerdictUnreportedExchange: the node acknowledged an exchange but
	// never reported it to its monitors (obligation evasion).
	VerdictUnreportedExchange
	// VerdictMonitorSilent: a designated monitor failed to broadcast the
	// hash share for an exchange it provably received.
	VerdictMonitorSilent
	// VerdictBadMessage: a malformed or wrongly-signed protocol message.
	VerdictBadMessage
)

// String implements fmt.Stringer.
func (k VerdictKind) String() string {
	switch k {
	case VerdictWrongForward:
		return "WrongForward"
	case VerdictNoForward:
		return "NoForward"
	case VerdictUnresponsive:
		return "Unresponsive"
	case VerdictBadAttestation:
		return "BadAttestation"
	case VerdictDigestMismatch:
		return "DigestMismatch"
	case VerdictUnreportedExchange:
		return "UnreportedExchange"
	case VerdictMonitorSilent:
		return "MonitorSilent"
	case VerdictBadMessage:
		return "BadMessage"
	default:
		return fmt.Sprintf("VerdictKind(%d)", int(k))
	}
}

// Verdict is a proof-of-misbehaviour report raised by a node.
type Verdict struct {
	Round    model.Round
	Kind     VerdictKind
	Accused  model.NodeID
	Reporter model.NodeID
	Detail   string
	// Exchange is the model.ExchangeID of the §V-A exchange the verdict
	// judges, when one is identifiable (empty otherwise, e.g. a digest
	// mismatch spans a whole round). It is trace correlation only:
	// excluded from EvidenceKey, String and Proof so the judicial
	// dedupe keys and proof bytes are unchanged by tracing.
	Exchange string
}

// String implements fmt.Stringer.
func (v Verdict) String() string {
	return fmt.Sprintf("%v %v against %v by %v: %s",
		v.Round, v.Kind, v.Accused, v.Reporter, v.Detail)
}

// EvidenceKey implements judicial.Evidence: monitor retries and re-raised
// findings for the same (accused, accuser, round, kind) collapse into one
// fact in the accountability plane.
func (v Verdict) EvidenceKey() judicial.Key {
	return judicial.Key{Accused: v.Accused, Accuser: v.Reporter, Round: v.Round, Kind: v.Kind.String()}
}

// Proof implements judicial.Evidence.
func (v Verdict) Proof() []byte { return []byte(v.String()) }

// TraceExchange exposes the exchange correlation id to the judicial
// registry's tracer (see judicial.Submit).
func (v Verdict) TraceExchange() string { return v.Exchange }

// Behavior configures selfish deviations for fault-injection experiments
// (§II-A: nodes "tamper with their software ... to maximise their benefit
// while minimising their contribution"). The zero value is a correct node.
type Behavior struct {
	// SkipServeEvery makes the node skip contacting one successor every
	// n-th (round, successor) slot — a free-rider saving upload
	// bandwidth. 0 disables.
	SkipServeEvery int
	// SkipServeOnRotation makes the node skip every serve, but only in
	// rounds whose monitor epoch just changed — the publicly computable
	// rounds where, without obligation handover, the forwarding check is
	// suspended system-wide. A strategic free-rider: behaves perfectly
	// except exactly where the pre-handover accountability was blind.
	SkipServeOnRotation bool
	// DropUpdates makes the node silently drop this many updates from
	// every Serve while attesting only what it sends — saving payload
	// bandwidth. 0 disables.
	DropUpdates int
	// NoAck makes the node skip acknowledging received exchanges.
	NoAck bool
	// IgnoreProbes additionally makes the node ignore monitor probes
	// (otherwise a NoAck node grudgingly acknowledges when probed).
	IgnoreProbes bool
	// RefuseReceive makes the node ignore KeyRequests and Serves
	// entirely (R1 violation).
	RefuseReceive bool
	// SilentMonitor suppresses the node's monitor duties (no hash
	// shares, no ack relays).
	SilentMonitor bool
	// SkipMonitorReport makes the node acknowledge exchanges but never
	// report them to its monitors (messages 6–7), dodging the forward
	// obligation.
	SkipMonitorReport bool
}

// IsCorrect reports whether the behaviour is fully protocol-compliant.
func (b Behavior) IsCorrect() bool { return b == Behavior{} }

// BehaviorForProfile maps a protocol-agnostic deviation profile name (the
// scenario vocabulary: "correct", "free-rider", "colluder") onto PAG's
// deviation knobs. It is the single definition shared by the simulated
// session and the TCP deployment, so "the same scenario over mem and tcp"
// always runs the same adversary; ok is false for unknown profiles.
func BehaviorForProfile(profile string) (b Behavior, ok bool) {
	switch profile {
	case "correct":
		return Behavior{}, true
	case "free-rider":
		return Behavior{SkipServeEvery: 1}, true
	case "colluder":
		return Behavior{SilentMonitor: true, SkipMonitorReport: true}, true
	case "rotation-dodger":
		return Behavior{SkipServeOnRotation: true}, true
	default:
		return Behavior{}, false
	}
}

// Config assembles a Node's dependencies.
type Config struct {
	// ID is this node's identity in the membership.
	ID model.NodeID
	// Suite provides signature/encryption; Identity is this node's key
	// material created from the same suite.
	Suite    pki.Suite
	Identity pki.Identity
	// HashParams are the session-wide homomorphic hash parameters.
	HashParams hhash.Params
	// Directory is the shared membership substrate.
	Directory *membership.Directory
	// Endpoint is the node's network attachment.
	Endpoint transport.Endpoint
	// Sources lists the session source nodes, which are assumed correct
	// (§III) and exempt from forwarding verification. The slice index is
	// the StreamID: Sources[s] is the signer of stream s's updates.
	Sources []model.NodeID
	// IsSource marks this node as a content source.
	IsSource bool
	// PrimeBits sizes the per-exchange primes (DefaultPrimeBits if 0).
	PrimeBits int
	// BuffermapWindow bounds what a KeyResponse's buffermap covers. By
	// default (0) it is the node's whole live set — every owned update that
	// has not expired, the only ones a Serve may carry. A positive value
	// additionally caps the reception age in rounds (4 is the paper's "the
	// updates of the last 4 rounds were hashed and transmitted", §V-D, kept
	// for before/after measurements); negative disables buffermaps (the
	// ablation).
	BuffermapWindow int
	// Behavior optionally injects selfish deviations.
	Behavior Behavior
	// NoObligationHandover disables the monitor-rotation obligation
	// handover (the pre-handover protocol) — an ablation that re-opens
	// the rotation-round forwarding-check gap, kept for regression tests
	// that document the exploit.
	NoObligationHandover bool
	// Metrics optionally attaches the observability registry: received
	// wire-message counters per kind (the §V-A exchange and Fig 6
	// monitoring phases) and the hhash timing histograms (the Fig 9
	// profiling hook). Counters are session-wide aggregates — nodes
	// share the registry's instruments, and commutative atomic adds keep
	// the totals deterministic at any worker count.
	Metrics *obs.Registry
	// Trace optionally attaches the round-event tracer: every §V-A
	// exchange becomes a span (open at BeginRound, close at CloseRound
	// with a terminal outcome) and every exchange, monitoring and
	// accusation event carries the exchange's model.ExchangeID; may be
	// nil.
	Trace *obs.Tracer
	// Verdicts receives proofs of misbehaviour; may be nil.
	Verdicts func(Verdict)
	// OnDeliver receives playback-ready updates; may be nil.
	OnDeliver func(update.Update)
	// Rand is the entropy source for primes (crypto/rand if nil).
	Rand io.Reader
	// CoeffRand is the entropy source for the small exponents that fold an
	// exchange's attestation checks into one equation (crypto/rand if nil).
	// A predecessor who can predict them can craft two wrong attestation
	// hashes whose errors cancel in the fold, so they must be as secret as
	// a key; simulated sessions pass SeededCoeffs to stay replayable.
	CoeffRand io.Reader
	// Intern optionally attaches the session-wide update-content flyweight
	// table (see update.Interner); nil keeps per-node content copies, as
	// pag-node does.
	Intern *update.Interner
	// Shared optionally provides the pre-assembled session plane. Sessions
	// build one Shared and hand it to every node; when nil, NewNode builds
	// a private plane from the session-wide fields above (single-node
	// construction, used throughout the tests). When non-nil it is
	// authoritative: the session-wide fields of this Config are ignored.
	Shared *Shared
}

func (c *Config) validate(sh *Shared) error {
	if c.ID == model.NoNode {
		return fmt.Errorf("core: node id must not be NoNode")
	}
	if sh.Suite == nil || c.Identity == nil {
		return fmt.Errorf("core: node %v needs a suite and identity", c.ID)
	}
	if c.Identity.NodeID() != c.ID {
		return fmt.Errorf("core: identity is for %v, node is %v",
			c.Identity.NodeID(), c.ID)
	}
	if sh.Directory == nil {
		return fmt.Errorf("core: node %v needs a membership directory", c.ID)
	}
	if c.Endpoint == nil {
		return fmt.Errorf("core: node %v needs a transport endpoint", c.ID)
	}
	if sh.HashParams.Modulus() == nil {
		return fmt.Errorf("core: node %v needs hash parameters", c.ID)
	}
	return nil
}

// Stats summarises one node's observable protocol activity.
type Stats struct {
	// RoundsRun counts completed rounds.
	RoundsRun uint64
	// UpdatesDelivered counts playback deliveries.
	UpdatesDelivered uint64
	// UpdatesReceived counts distinct updates first received.
	UpdatesReceived uint64
	// DuplicateReceptions counts multiplicity beyond first receptions.
	DuplicateReceptions uint64
	// PayloadsSent / RefsSent split serve traffic into full payloads vs
	// buffermap-deduplicated references.
	PayloadsSent uint64
	RefsSent     uint64
	// AccusationsSent counts accusations this node raised.
	AccusationsSent uint64
	// HashOps / SigOps snapshot the cryptographic counters (Table I).
	HashOps uint64
	SigOps  uint64
}
