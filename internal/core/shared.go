package core

import (
	"repro/internal/hhash"
	"repro/internal/membership"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pki"
	"repro/internal/update"
	"repro/internal/wire"
)

// Shared is the flyweight session plane: everything about a session that is
// identical across its nodes, declared here and nowhere else, assembled
// exactly once by NewShared and referenced by every Node (Config.Shared).
// Assembling it once spares each node its own copy and its own derived
// state — 17 registry lookups for the per-kind message counters, two
// histogram lookups — which at 10⁵ nodes is real memory and real
// construction time. A Shared is immutable after NewShared; nodes only ever
// read it, so it is free to share across the round engine's shards.
type Shared struct {
	// Suite provides signature/encryption for all session members.
	Suite pki.Suite
	// HashParams are the session-wide homomorphic hash parameters.
	HashParams hhash.Params
	// Directory is the shared membership substrate.
	Directory *membership.Directory
	// Source is the session's one source node: the signer of every
	// update, assumed correct (§III) and exempt from forwarding
	// verification.
	Source model.NodeID
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
	// Intern is the session-wide update-content flyweight table; nil
	// disables interning and every node keeps private payload/signature
	// copies.
	Intern *update.Interner

	// primeBits sizes the per-exchange primes: the modulus width, as §VII-A
	// sizes both.
	primeBits int
	// msgK / bytesK hold the per-kind received-message and received-byte
	// counters (payload plus transport.HeaderBytes, what the bandwidth
	// accounting charges), resolved once for the whole session (nil entries
	// without a registry — Inc and Add no-op).
	msgK, bytesK [maxWireKind + 1]*obs.Counter
	// servedPayloads / servedRefs count the items of the Serves nodes
	// accepted by form, duplicatePayloads the payloads among them for an
	// update the receiver already held: payloads over payloads minus
	// duplicates is how many copies of an update cross a link per first
	// reception — one, if the buffermap did all it could (nil without a
	// registry).
	servedPayloads, servedRefs, duplicatePayloads *obs.Counter
	// liftHist is the hhash timing histogram every node's hasher reports
	// into: every lift, attestation checks included.
	liftHist *obs.Histogram
}

// NewShared builds the session plane from the exported fields of sh, taken
// as given, and resolves the state derived from them once for the whole
// session: the prime width and the metric instruments.
func NewShared(sh Shared) *Shared {
	if m := sh.HashParams.Modulus(); m != nil {
		sh.primeBits = m.BitLen()
	}
	if sh.Metrics != nil {
		for k := uint8(1); k <= maxWireKind; k++ {
			kind := obs.L("kind", wire.KindName(k))
			sh.msgK[k] = sh.Metrics.Counter("pag_core_messages_total", kind)
			sh.bytesK[k] = sh.Metrics.Counter("pag_core_bytes_total", kind)
		}
		sh.servedPayloads = sh.Metrics.Counter("pag_core_serve_items_total", obs.L("form", "payload"))
		sh.servedRefs = sh.Metrics.Counter("pag_core_serve_items_total", obs.L("form", "ref"))
		sh.duplicatePayloads = sh.Metrics.Counter("pag_core_duplicate_payloads_total")
		sh.liftHist = sh.Metrics.Histogram("pag_hhash_lift_seconds", obs.ClassTimed)
	}
	return &sh
}
