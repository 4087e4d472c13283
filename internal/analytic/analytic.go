// Package analytic provides closed-form per-node bandwidth and crypto-cost
// models for PAG, AcTinG and RAC, derived from the exact wire-format sizes
// of the implementations. The paper itself resorts to computation where
// simulation does not scale ("We also computed the scalability of the
// protocol when the number of nodes was too high to be simulated",
// §VII-A); these models serve Fig 8 and Fig 9 beyond simulated sizes, and
// Table II's capacity sweep.
//
// The models are structural, not fitted: every term corresponds to a
// message of the protocol with its encoded size. They reproduce the
// paper's shapes — PAG a small multiple of AcTinG, both a small multiple
// of the stream rate growing logarithmically with the membership (through
// f = ⌈log10 N⌉), and RAC linear in N and out of reach for live video on
// any realistic link.
package analytic

import (
	"math"

	"repro/internal/model"
)

// Wire collects the byte-size constants of the implementation's encodings.
type Wire struct {
	SigBytes    int // RSA-2048 signature
	HeaderBytes int // transport framing per message
	EncOverhead int // hybrid encryption overhead
	HashBytes   int // encoded homomorphic hash value (modulus width + len)
	BufTagBytes int // one KeyResponse buffermap entry (wire.BufTagBytes)
	PrimeBytes  int // encoded prime exponent
	RefBytes    int // serve reference (id + count)
	MsgFixed    int // round/from/to fields
}

// DefaultWire matches the repository's actual encodings at the paper's
// parameter sizes (RSA-2048, 512-bit modulus and primes).
func DefaultWire() Wire {
	return Wire{
		SigBytes:    256,
		HeaderBytes: 40,
		EncOverhead: 256 + 12 + 16,
		HashBytes:   64 + 4,
		BufTagBytes: 8,
		PrimeBytes:  64 + 4,
		RefBytes:    20,
		MsgFixed:    17,
	}
}

// Params parameterises the PAG/AcTinG models.
type Params struct {
	// PayloadKbps is the stream bitrate.
	PayloadKbps int
	// UpdateBytes is the chunk size (938 if zero; Fig 8 sweeps it).
	UpdateBytes int
	// N is the system size; the fanout and monitor count default to
	// model.FanoutFor(N).
	N        int
	Fanout   int
	Monitors int
	// BuffermapWindow is the §V-D ownership window (4 if zero).
	BuffermapWindow int
	// TTLRounds is the update lifetime (10 if zero).
	TTLRounds int
	// Wire overrides the byte constants (DefaultWire if zero).
	Wire Wire
}

func (p Params) withDefaults() Params {
	out := p
	if out.UpdateBytes == 0 {
		out.UpdateBytes = model.UpdateBytes
	}
	if out.Fanout == 0 {
		out.Fanout = model.FanoutFor(out.N)
	}
	if out.Monitors == 0 {
		out.Monitors = out.Fanout
	}
	if out.BuffermapWindow == 0 {
		out.BuffermapWindow = 4
	}
	if out.TTLRounds == 0 {
		out.TTLRounds = model.PlayoutDelayRounds
	}
	if out.Wire == (Wire{}) {
		out.Wire = DefaultWire()
	}
	return out
}

// updatesPerSec returns the chunk rate of the stream.
func (p Params) updatesPerSec() float64 {
	return float64(p.PayloadKbps) * 1000 / 8 / float64(p.UpdateBytes)
}

// refRounds estimates for how many rounds a saturated update keeps
// circulating as references: lifetime minus the epidemic saturation time
// log_f(N).
func (p Params) refRounds() float64 {
	if p.N < 2 || p.Fanout < 2 {
		return 1
	}
	sat := math.Log(float64(p.N)) / math.Log(float64(p.Fanout))
	l := float64(p.TTLRounds) - sat
	if l < 1 {
		return 1
	}
	return l
}

// duplicateFactor is the fraction of payloads transferred redundantly
// before buffermaps suppress them (same-round concurrent serves).
const duplicateFactor = 0.3

// KeyResponseBytes models message 2 per node per round: one KeyResponse to
// each of the f predecessors, carrying the fresh prime and the buffermap —
// one tag per update owned in the window (§V-D). A KeyRequest is answered
// at the top of its round, before that round's serves arrive, so the
// newest of the window's rounds is still empty when the map is built.
func KeyResponseBytes(in Params) float64 {
	p := in.withDefaults()
	w := p.Wire
	tags := p.updatesPerSec() * float64(p.BuffermapWindow-1)
	const prefixes = 4 + 4 // tag count, signature length
	return float64(p.Fanout) * (float64(w.HeaderBytes+w.EncOverhead+w.MsgFixed+w.PrimeBytes+prefixes+w.SigBytes) +
		tags*float64(w.BufTagBytes))
}

// PAGPerNodeKbps models PAG's per-node bandwidth (§V message flow).
func PAGPerNodeKbps(in Params) float64 {
	p := in.withDefaults()
	w := p.Wire
	u := p.updatesPerSec()
	f := float64(p.Fanout)
	fm := float64(p.Monitors)
	kPrevBytes := float64(w.PrimeBytes) * f // K products carry ≈ f primes

	bytesPerSec := 0.0

	// Message 1: KeyRequest to every successor.
	bytesPerSec += f * float64(w.HeaderBytes+w.MsgFixed+w.SigBytes)

	// Message 2: KeyResponse to every predecessor, carrying the buffermap.
	bytesPerSec += KeyResponseBytes(p)

	// Message 3: Serve. Payload crosses each node essentially once
	// (plus same-round duplicates); afterwards the update circulates as
	// references from every predecessor for its remaining lifetime —
	// the "node may have to forward several times a given update"
	// overhead of §VII-B.
	bytesPerSec += u * (1 + duplicateFactor) * float64(p.UpdateBytes+3*8+12)
	bytesPerSec += u * p.refRounds() * f * float64(w.RefBytes)
	bytesPerSec += f * (float64(w.HeaderBytes+w.EncOverhead+w.MsgFixed+w.SigBytes) + kPrevBytes)

	// Message 4: Attestation (two hash values) per successor.
	bytesPerSec += f * float64(w.HeaderBytes+w.MsgFixed+2*w.HashBytes+w.SigBytes)

	// Message 5: Ack per predecessor.
	ackBytes := float64(w.HeaderBytes + w.MsgFixed + w.HashBytes + w.SigBytes)
	bytesPerSec += f * ackBytes

	// Messages 6-7: per-exchange monitor report (ack copy + encrypted
	// attestation with the remainder product).
	attBytes := float64(w.MsgFixed + 2*w.HashBytes + w.SigBytes)
	bytesPerSec += f * (ackBytes +
		float64(w.HeaderBytes+w.EncOverhead+w.MsgFixed+w.SigBytes) + attBytes + kPrevBytes)

	// Message 8: the designated monitor broadcasts the lifted share to
	// the other monitors. Each node is designated for ≈ f exchanges.
	shareBytes := float64(w.HeaderBytes+w.MsgFixed+8+2*w.HashBytes+w.SigBytes) + ackBytes
	bytesPerSec += f * (fm - 1) * shareBytes

	// Message 9: every monitor of the receiver relays the ack to every
	// monitor of the sender (robustness against silent monitors). A
	// node monitors ≈ fm others, each with f exchanges per round.
	relayBytes := float64(w.HeaderBytes+w.MsgFixed) + ackBytes + float64(w.SigBytes)
	bytesPerSec += fm * f * fm * relayBytes

	// Self-digest to all monitors.
	bytesPerSec += fm * float64(w.HeaderBytes+w.MsgFixed+w.HashBytes+w.SigBytes)

	return bytesPerSec * 8 / 1000
}

// ActingPerNodeKbps models the AcTinG baseline: pull-based single transfer
// plus proposals, requests and amortised audit traffic.
func ActingPerNodeKbps(in Params) float64 {
	p := in.withDefaults()
	w := p.Wire
	u := p.updatesPerSec()
	f := float64(p.Fanout)
	idBytes := 12.0

	bytesPerSec := 0.0
	// Payload crosses each node about once (pull discipline).
	bytesPerSec += u * 1.1 * float64(p.UpdateBytes+int(idBytes)+16)
	// Proposals to every successor and the matching requests.
	bytesPerSec += f * (float64(w.HeaderBytes+w.MsgFixed+w.SigBytes) + u*idBytes)
	bytesPerSec += f * (float64(w.HeaderBytes+w.MsgFixed+w.SigBytes) + u*idBytes/f)
	// Data message framing.
	bytesPerSec += f * float64(w.HeaderBytes+w.MsgFixed+w.SigBytes) / 2
	// Audits: the log grows ≈ 2f entries of ≈(30 + ids) bytes per round;
	// each of the fm monitors fetches the suffix once per period.
	entriesPerRound := 2*f + f
	entryBytes := 30 + u/f*idBytes
	bytesPerSec += float64(p.Monitors) * entriesPerRound * entryBytes / float64(5)
	return bytesPerSec * 8 / 1000
}

// RACAmplification is the per-node relay amplification of RAC at system
// size N: every member's cover-traffic slots circulate through every node
// (Θ(N)), across the protocol's redundant accountable broadcast phases.
// The phase constant is calibrated to the RAC paper's reported maximum
// throughput (63 kbps on 10 Gbps links with 1000 nodes, §VII-B); the ring
// implementation in internal/rac realises the Θ(N) structure.
const racPhaseFactor = 120

// RACPerNodeKbps models RAC's per-node bandwidth.
func RACPerNodeKbps(payloadKbps, n int) float64 {
	w := DefaultWire()
	u := float64(payloadKbps) * 1000 / 8 / float64(model.UpdateBytes)
	if u < 1 {
		u = 1
	}
	slotWire := float64(model.UpdateBytes + w.HeaderBytes + w.SigBytes + 22)
	return float64(n) * u * slotWire * racPhaseFactor * 8 / 1000
}

// MaxSustainableQuality returns the highest ladder quality whose modelled
// bandwidth fits the link capacity, with the bandwidth it uses. ok is
// false when not even 144p fits (the paper's ∅ cells for RAC).
func MaxSustainableQuality(perNodeKbps func(payloadKbps int) float64, capacityKbps float64) (q model.Quality, usedKbps float64, ok bool) {
	for _, cand := range model.Qualities() {
		bw := perNodeKbps(cand.PayloadKbps())
		if bw <= capacityKbps {
			q, usedKbps, ok = cand, bw, true
		}
	}
	return q, usedKbps, ok
}

// SignaturesPerSec models Table I's RSA-signature row: signatures depend
// only on the per-round message count, not on the video quality ("The
// number of RSA signatures is always equal to 33, as it depends on the
// number of messages generated by the protocol", §VII-C).
func SignaturesPerSec(fanout, monitors int) float64 {
	f := float64(fanout)
	fm := float64(monitors)
	// Sender: KeyRequest, Serve, Attestation per successor.
	// Receiver: KeyResponse, Ack, AttForward per predecessor + digest.
	// Monitor: shares for designated exchanges + fm relays for each of
	// the fm monitored nodes' f exchanges.
	return 3*f + 3*f + 1 + f + fm*f
}

// HashesPerSec models Table I's homomorphic-hash row: dominated by the
// buffermap (window × rate per predecessor) plus sender-side matching and
// the per-exchange attestation/ack/lift operations.
func HashesPerSec(payloadKbps, updateBytes, window, fanout int) float64 {
	if updateBytes == 0 {
		updateBytes = model.UpdateBytes
	}
	if window == 0 {
		window = 4
	}
	u := float64(payloadKbps) * 1000 / 8 / float64(updateBytes)
	f := float64(fanout)
	return u*float64(window)*f + u*f + 8*f
}
