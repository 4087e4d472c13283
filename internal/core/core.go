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

	"repro/internal/judicial"
	"repro/internal/model"
	"repro/internal/pki"
	"repro/internal/transport"
	"repro/internal/update"
)

// Verdict kinds, mapped to the deviations of §IV-A/§VI-B.
const (
	// VerdictWrongForward: a successor acknowledged a set that differs
	// from the node's obligation — R2 violated (partial or altered
	// forwarding).
	VerdictWrongForward judicial.Kind = "WrongForward"
	// VerdictNoForward: no acknowledgement, no accusation, and the node
	// could not exhibit one when challenged — "it is considered guilty
	// because it did not accuse node B".
	VerdictNoForward judicial.Kind = "NoForward"
	// VerdictUnresponsive: the node ignored a monitor probe — R1
	// violated (refusal to receive / acknowledge).
	VerdictUnresponsive judicial.Kind = "Unresponsive"
	// VerdictBadAttestation: an attestation does not match the served
	// content (receiver-side detection).
	VerdictBadAttestation judicial.Kind = "BadAttestation"
	// VerdictDigestMismatch: the node's self-digest disagrees with the
	// monitors' accumulated obligation (§V-B cross-check).
	VerdictDigestMismatch judicial.Kind = "DigestMismatch"
	// VerdictUnreportedExchange: the node acknowledged an exchange but
	// never reported it to its monitors (obligation evasion).
	VerdictUnreportedExchange judicial.Kind = "UnreportedExchange"
	// VerdictMonitorSilent: a designated monitor failed to broadcast the
	// hash share for an exchange it provably received.
	VerdictMonitorSilent judicial.Kind = "MonitorSilent"
	// VerdictBadMessage: a malformed or wrongly-signed protocol message.
	VerdictBadMessage judicial.Kind = "BadMessage"
)

// Behavior configures selfish deviations for fault-injection experiments
// (§II-A: nodes "tamper with their software ... to maximise their benefit
// while minimising their contribution"). The zero value is a correct node.
type Behavior struct {
	// SkipServeEvery makes the node skip contacting one successor every
	// n-th (round, successor) slot — a free-rider saving upload
	// bandwidth. 0 disables.
	SkipServeEvery int
	// SkipServeOnRotation makes the node skip every serve, but only in
	// rounds whose membership epoch just opened — the publicly computable
	// rounds where a monitor newly seated at the transition has no
	// baseline and skips its forwarding check. A strategic free-rider:
	// the monitors that stay across the boundary still convict it.
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

// Config assembles a Node's dependencies: the per-node ones, plus the
// session plane every node of the session shares. Everything identical
// across a session's nodes — suite, hash parameters, directory, source,
// observability and the content interner — is declared once, in Shared.
type Config struct {
	// ID is this node's identity in the membership.
	ID model.NodeID
	// Identity is this node's key material, created from Shared.Suite.
	Identity pki.Identity
	// Endpoint is the node's network attachment.
	Endpoint transport.Endpoint
	// Behavior optionally injects selfish deviations.
	Behavior Behavior
	// Verdicts receives proofs of misbehaviour; may be nil.
	Verdicts func(judicial.Verdict)
	// OnDeliver receives playback-ready updates; may be nil.
	OnDeliver func(update.Update)
	// Shared is the session plane (see NewShared); required. A session
	// builds one and hands it to every node.
	Shared *Shared
}

func (c *Config) validate() error {
	if c.ID == model.NoNode {
		return fmt.Errorf("core: node id must not be NoNode")
	}
	sh := c.Shared
	if sh == nil {
		return fmt.Errorf("core: node %v needs a session plane (Shared)", c.ID)
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
