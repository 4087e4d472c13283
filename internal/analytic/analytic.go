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

// WireFor is DefaultWire with the hash values and prime exponents of a
// session run at the given modulus width (primes are as wide as the
// modulus): what simulations at 128 or 256 bits put on the wire.
func WireFor(modulusBits int) Wire {
	w := DefaultWire()
	w.HashBytes = modulusBits/8 + lenPrefix
	w.PrimeBytes = modulusBits/8 + lenPrefix
	return w
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
	// TTLRounds is the update lifetime (model.ForwardingTTL(N, Fanout) if
	// zero, a session's default).
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
	if out.TTLRounds == 0 {
		out.TTLRounds = int(model.ForwardingTTL(out.N, out.Fanout))
	}
	if out.Wire == (Wire{}) {
		out.Wire = DefaultWire()
	}
	return out
}

// population returns N as the dissemination terms use it: at least the f+2
// nodes the smallest session has, so no probability divides by zero.
func (p Params) population() float64 {
	return math.Max(float64(p.N), float64(p.Fanout+2))
}

// updatesPerSec returns the chunk rate of the stream.
func (p Params) updatesPerSec() float64 {
	return float64(p.PayloadKbps) * 1000 / 8 / float64(p.UpdateBytes)
}

// dissemination is what one update costs a node over its lifetime, in
// expectation over the membership: multiplied by the chunk rate it is the
// node's steady-state cost per round.
type dissemination struct {
	// payloads and refs are the Serve items a node receives for the update:
	// full copies (the first reception, plus the extra ones from
	// predecessors sharing the last exchange slot) and references.
	payloads, refs float64
	// tags is how many of the f KeyResponses a node receives per round
	// carry a buffermap entry for the update, summed over its lifetime.
	tags float64
}

// lastSlotTail bounds the in-degree sum: the in-degree is Binomial(N−1,
// f/(N−1)), and its tail past this is below 1e-30 at any fanout the
// ⌈log10 N⌉ rule produces.
const lastSlotTail = 64

// disseminate follows one update from the round its source mints it (age
// 0) to its deadline (age TTL) in the mean field: a node that received the
// update at age a−1 — for the first time or again — serves it to its f
// successors at age a (§V-D), and every predecessor of a node opens its
// exchange in the slot of its rank, the ones ranked f−1 and beyond sharing
// the last. h is the fraction of nodes holding the update, fwd the fraction
// serving it.
func (p Params) disseminate() dissemination {
	n := p.population()
	f := p.Fanout
	hit := float64(f) / (n - 1) // a given node is among another's successors

	// In-degree D, and how many predecessors share the last slot:
	// E[max(0, D−(f−1))].
	pmf := make([]float64, lastSlotTail)
	pmf[0] = math.Pow(1-hit, n-1)
	for k := 1; k < lastSlotTail && float64(k) <= n-1; k++ {
		pmf[k] = pmf[k-1] * (n - float64(k)) / float64(k) * hit / (1 - hit)
	}
	shared := 0.0
	for D := f; D < lastSlotTail; D++ {
		shared += pmf[D] * float64(D-(f-1))
	}

	var d dissemination
	// Age 0: the source serves its f successors, in their slot 0 (it has
	// the lowest id), and holds the update from the round top.
	h := 1 / n
	fresh := (1 - h) * hit
	items := float64(f) * h
	d.payloads = fresh
	top := h // buffermaps the update is in at the round top, per response
	seen := make([]float64, f)
	for k := 1; k < f; k++ {
		seen[k] = fresh // new to the node by the time slot k opens
	}
	fwd := fresh
	h += fresh

	for age := 1; age <= p.TTLRounds; age++ {
		m := n * fwd              // nodes serving the update this round
		q := math.Min(1, m/(n-1)) // a non-holder's predecessor is one of them
		items += float64(f) * fwd
		top += h
		recv := 1 - math.Pow(1-hit, m)
		recvHolder := 1 - math.Pow(1-hit, math.Max(0, m-fwd/h))
		fresh = (1 - h) * recv
		// Extra copies: when the first predecessor carrying the update is
		// in the last slot, every carrier there sends the payload — the
		// carriers among its l predecessors, less the one that counts.
		extra := shared * q
		for D := f; D < lastSlotTail; D++ {
			extra -= pmf[D] * (1 - math.Pow(1-q, float64(D-(f-1))))
		}
		d.payloads += fresh + (1-h)*math.Pow(1-q, float64(f-1))*extra
		for k := 1; k < f; k++ {
			seen[k] += (1 - h) * (1 - math.Pow(1-q, float64(k)))
		}
		fwd = fresh + h*recvHolder
		h += fresh
	}
	d.refs = items - d.payloads

	// A response in slot k lists what the node held at the round top plus
	// what slots before k delivered; slot k < f−1 has a response when the
	// in-degree exceeds k, the last slot one per predecessor in it.
	d.tags = float64(f) * top
	above := 1.0 // P(D > k)
	for k := 0; k < f-1; k++ {
		above -= pmf[k]
		d.tags += above * seen[k]
	}
	d.tags += shared * seen[f-1]
	return d
}

// lenPrefix is the length prefix of every variable-length wire field: a
// signature of SigBytes travels as lenPrefix + SigBytes.
const lenPrefix = 4

// PAGKindBytes models what a PAG node receives per round of each wire kind
// (§V message flow), keyed by wire.KindName — the model's side of the
// pag_core_bytes_total{kind} counter.
func PAGKindBytes(in Params) map[string]float64 {
	p := in.withDefaults()
	w := p.Wire
	u := p.updatesPerSec()
	f := float64(p.Fanout)
	fm := float64(p.Monitors)
	n := p.population()
	d := p.disseminate()

	sig := float64(lenPrefix + w.SigBytes)
	fixed := float64(w.MsgFixed)        // kind, round, from, to
	fromOnly := float64(w.MsgFixed - 4) // kind, round, from
	hdr := float64(w.HeaderBytes)
	enc := float64(w.EncOverhead)
	hash := float64(w.HashBytes)
	primeBody := float64(w.PrimeBytes - lenPrefix)
	// A product of k primes travels as one length-prefixed integer.
	primes := func(k float64) float64 { return lenPrefix + primeBody*k }

	// The signed messages that travel inside others, without a header.
	att := fixed + 2*hash + sig
	ack := fixed + hash + sig

	out := map[string]float64{}
	// Message 1: KeyRequest to every successor.
	out["KeyRequest"] = f * (hdr + fixed + sig)
	// Message 2: KeyResponse to every predecessor: the fresh prime and the
	// buffermap, one tag per live update the responder holds (§V-D).
	out["KeyResponse"] = f*(hdr+enc+fixed+float64(w.PrimeBytes)+lenPrefix+sig) +
		u*d.tags*float64(w.BufTagBytes)
	// Message 3: Serve. A payload travels with its identifier, deadline and
	// source signature (§III) and crosses a link about once per node; for
	// the rest of its lifetime the update circulates as references — the
	// "node may have to forward several times a given update" overhead of
	// §VII-B. K(R-1,A) is the product of the ≈ f primes A issued.
	payload := float64(p.UpdateBytes) + 4 + 8 + 8 + lenPrefix + sig + 8
	out["Serve"] = f*(hdr+enc+fixed+primes(f)+2*lenPrefix+sig) +
		u*(d.payloads*payload+d.refs*float64(w.RefBytes))
	// Message 4: Attestation (two hash values) per successor.
	out["Attestation"] = f * (hdr + att)
	// Message 5: Ack per predecessor; message 6 copies it to a monitor.
	out["Ack"] = f * (hdr + ack)
	out["AckCopy"] = f * (hdr + ack)
	// Message 7: the attestation, encrypted to the designated monitor with
	// the product of the receiver's other primes — its in-degree, as an
	// exchange sees it, is one more than f·(N−2)/(N−1).
	out["AttForward"] = f * (hdr + enc + fromOnly + lenPrefix + att + primes(f*(n-2)/(n-1)) + sig)
	// Message 8: the designated monitor broadcasts the lifted share, with
	// the ack, to the other monitors. Each node is designated for ≈ f
	// exchanges.
	out["HashShare"] = f * (fm - 1) * (hdr + fromOnly + 8 + 2*hash + lenPrefix + ack + sig)
	// Message 9: every monitor of the receiver relays the ack to every
	// monitor of the sender (robustness against silent monitors), itself
	// excepted when it monitors both. A node monitors ≈ fm others, each
	// with f exchanges per round.
	pairs := fm*fm - fm*fm*(n-2)/((n-1)*(n-1))
	out["AckForward"] = f * pairs * (hdr + fromOnly + lenPrefix + ack + sig)
	// Self-digest to all monitors.
	out["NodeDigest"] = fm * (hdr + fromOnly + hash + sig)
	return out
}

// PAGPerNodeKbps models PAG's per-node bandwidth: every kind of
// PAGKindBytes, per one-second round.
func PAGPerNodeKbps(in Params) float64 {
	kinds := PAGKindBytes(in)
	bytesPerSec := 0.0
	for _, kind := range pagKinds { // a fixed order: the sum repeats to the bit
		bytesPerSec += kinds[kind]
	}
	return bytesPerSec * 8 / 1000
}

// pagKinds lists the kinds PAGKindBytes models, in wire order.
var pagKinds = []string{"KeyRequest", "KeyResponse", "Serve", "Attestation", "Ack",
	"AckCopy", "AttForward", "HashShare", "AckForward", "NodeDigest"}

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
// throughput (63 kbps on 10 Gbps links with 1000 nodes, §VII-B). RAC is
// not run here: like the paper, Table II takes RAC's cost from this model.
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

// paperBuffermapRounds is the paper's buffermap span: the updates of the
// last 4 rounds (§V-D), the count Table I's hash row is priced on.
const paperBuffermapRounds = 4

// HashesPerSec models Table I's homomorphic-hash row at the paper's 938 B
// updates: dominated by the buffermap (paperBuffermapRounds × rate per
// predecessor) plus sender-side matching and the per-exchange
// attestation/ack/lift operations.
func HashesPerSec(payloadKbps, fanout int) float64 {
	u := float64(payloadKbps) * 1000 / 8 / model.UpdateBytes
	f := float64(fanout)
	return u*paperBuffermapRounds*f + u*f + 8*f
}
