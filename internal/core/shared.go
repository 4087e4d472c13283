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
// identical across its nodes, assembled exactly once and referenced by
// every Node. Before it existed each node carried its own Config copy and
// rebuilt the same derived state — 17 registry lookups for the per-kind
// message counters, two histogram lookups, its own defaults normalisation —
// which at 10⁵ nodes is real memory and real construction time. A Shared is
// immutable after NewShared; nodes only ever read it, so it is free to
// share across the parallel engine's shards.
type Shared struct {
	// Suite provides signature/encryption for all session members.
	Suite pki.Suite
	// HashParams are the session-wide homomorphic hash parameters.
	HashParams hhash.Params
	// Directory is the shared membership substrate.
	Directory *membership.Directory
	// Sources lists the session source nodes (index = StreamID).
	Sources []model.NodeID
	// PrimeBits sizes the per-exchange primes (normalised, never 0).
	PrimeBits int
	// BuffermapWindow is Config.BuffermapWindow as given: negative disables
	// buffermaps, 0 maps the whole live set, positive caps reception age.
	BuffermapWindow int
	// NoObligationHandover disables the rotation handover (ablation).
	NoObligationHandover bool
	// DisablePrimePool / DisableBatchVerify are the crypto-hot-path
	// ablations (see Config).
	DisablePrimePool   bool
	DisableBatchVerify bool
	// Metrics/Trace are the optional observability attachments.
	Metrics *obs.Registry
	Trace   *obs.Tracer
	// Intern is the session-wide update-content flyweight table; nil
	// disables interning (the DisableFlyweight ablation) and every node
	// keeps private payload/signature copies, the pre-flyweight
	// representation.
	Intern *update.Interner

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
	// liftHist/verifyHist are the hhash timing histograms every node's
	// hasher reports into.
	liftHist, verifyHist *obs.Histogram
}

// NewShared builds the session plane from the session-wide fields of a
// Config, normalising defaults. Per-node fields of cfg (ID, Identity,
// Endpoint, Behavior, ...) are ignored.
func NewShared(cfg Config) *Shared {
	sh := &Shared{
		Suite:                cfg.Suite,
		HashParams:           cfg.HashParams,
		Directory:            cfg.Directory,
		Sources:              cfg.Sources,
		PrimeBits:            cfg.PrimeBits,
		BuffermapWindow:      cfg.BuffermapWindow,
		NoObligationHandover: cfg.NoObligationHandover,
		DisablePrimePool:     cfg.DisablePrimePool,
		DisableBatchVerify:   cfg.DisableBatchVerify,
		Metrics:              cfg.Metrics,
		Trace:                cfg.Trace,
		Intern:               cfg.Intern,
	}
	if sh.PrimeBits == 0 {
		sh.PrimeBits = DefaultPrimeBits
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
		sh.liftHist = sh.Metrics.Histogram("pag_hhash_lift_seconds", obs.ClassTimed, nil)
		sh.verifyHist = sh.Metrics.Histogram("pag_hhash_verify_seconds", obs.ClassTimed, nil)
	}
	return sh
}
