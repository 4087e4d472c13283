package judicial_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/acting"
	"repro/internal/core"
	"repro/internal/judicial"
)

// verdictPins holds one verdict of each protocol's kinds with its text,
// dedupe key and proof digest, recorded at c57b51c (when each protocol
// still declared its own verdict type). Registry digests and pag-node's
// VERDICT lines carry these bytes, so they must not move.
var verdictPins = []struct {
	v     judicial.Verdict
	text  string
	key   string
	proof string // hex SHA-256 of Proof()
}{
	{judicial.Verdict{Round: 4, Kind: core.VerdictWrongForward, Accused: 5, Reporter: 2, Detail: "acked set differs from obligation", Exchange: "x3-5-7"},
		"r4 WrongForward against n5 by n2: acked set differs from obligation",
		"r4 WrongForward against n5 by n2",
		"57a0ff9f0bebda041db738cfe38e018a826039184f27ebea806b5d8bdd819f0c"},
	{judicial.Verdict{Round: 4, Kind: core.VerdictNoForward, Accused: 5, Reporter: 2, Detail: "no ack, no accusation"},
		"r4 NoForward against n5 by n2: no ack, no accusation",
		"r4 NoForward against n5 by n2",
		"575299e5d93f56d52fa050a892f2d92ab6ae55e44ada2af0803407ef268d6618"},
	{judicial.Verdict{Round: 3, Kind: core.VerdictUnresponsive, Accused: 13, Reporter: 4, Detail: "ignored probe"},
		"r3 Unresponsive against n13 by n4: ignored probe",
		"r3 Unresponsive against n13 by n4",
		"53992b37b81bbbb8839e0a2da4a6f2405857db7c3a87655d2dc070c5b844d009"},
	{judicial.Verdict{Round: 4, Kind: core.VerdictBadAttestation, Accused: 5, Reporter: 8, Detail: "attestation does not match serve"},
		"r4 BadAttestation against n5 by n8: attestation does not match serve",
		"r4 BadAttestation against n5 by n8",
		"d17799a6c259af2ac691d6a0283527368b3e2e37ae3a4f8475bc0e2a1f6d565a"},
	{judicial.Verdict{Round: 3, Kind: core.VerdictDigestMismatch, Accused: 17, Reporter: 3, Detail: "self-digest disagrees"},
		"r3 DigestMismatch against n17 by n3: self-digest disagrees",
		"r3 DigestMismatch against n17 by n3",
		"6671f5ca5f84ad019b9017b9624f3b9ab898adf2c7ce71a614a77c0928cb507e"},
	{judicial.Verdict{Round: 3, Kind: core.VerdictUnreportedExchange, Accused: 17, Reporter: 3, Detail: "exchange never reported"},
		"r3 UnreportedExchange against n17 by n3: exchange never reported",
		"r3 UnreportedExchange against n17 by n3",
		"a512cd34dd36427289a5df714e44379e7ffcf0e8d440538a3ffaf1e16f99295f"},
	{judicial.Verdict{Round: 4, Kind: core.VerdictMonitorSilent, Accused: 11, Reporter: 12, Detail: "no hash share"},
		"r4 MonitorSilent against n11 by n12: no hash share",
		"r4 MonitorSilent against n11 by n12",
		"4ccbf12db6da47fb0e5ff669e87af8e2b5e9747a41c6daae21b4f0759a4123f3"},
	{judicial.Verdict{Round: 3, Kind: core.VerdictBadMessage, Accused: 2, Reporter: 7, Detail: "bad signature"},
		"r3 BadMessage against n2 by n7: bad signature",
		"r3 BadMessage against n2 by n7",
		"33e62d1a6c7bb2c6d19c380cc7db1630eff45fa8e18ef42d8a173f23163f9cf8"},
	{judicial.Verdict{Round: 4, Kind: acting.VerdictTamperedLog, Accused: 5, Reporter: 2, Detail: "chain verification failed"},
		"r4 TamperedLog against n5 by n2: chain verification failed",
		"r4 TamperedLog against n5 by n2",
		"f72950bc65b112f8627290cc71c582d0dd10ec0e0da3097b66e2120e609bb54e"},
	{judicial.Verdict{Round: 3, Kind: acting.VerdictMissingPropose, Accused: 4, Reporter: 9, Detail: "no propose to n6"},
		"r3 MissingPropose against n4 by n9: no propose to n6",
		"r3 MissingPropose against n4 by n9",
		"f34bd8cad1d654a3556c75bb44498c4d639857eee3896ae4a075a6f2bc59759d"},
	{judicial.Verdict{Round: 3, Kind: acting.VerdictUnservedRequest, Accused: 6, Reporter: 2, Detail: "request unanswered"},
		"r3 UnservedRequest against n6 by n2: request unanswered",
		"r3 UnservedRequest against n6 by n2",
		"2d040397436213780bd88e37fda3369087cf2e35446b9016eb464f5370850814"},
	{judicial.Verdict{Round: 3, Kind: acting.VerdictRefusedAudit, Accused: 4, Reporter: 9, Detail: "no audit reply"},
		"r3 RefusedAudit against n4 by n9: no audit reply",
		"r3 RefusedAudit against n4 by n9",
		"75b08c9b4639e5160fc99ee1b6bee6b2239c3d24b75cf34de646885025e63eb5"},
}

func TestVerdictTextKeyAndProofPinned(t *testing.T) {
	for _, p := range verdictPins {
		if got := p.v.String(); got != p.text {
			t.Errorf("%s: String() = %q, want %q", p.v.Kind, got, p.text)
		}
		if got := p.v.Key().String(); got != p.key {
			t.Errorf("%s: Key() = %q, want %q", p.v.Kind, got, p.key)
		}
		sum := sha256.Sum256(p.v.Proof())
		if got := hex.EncodeToString(sum[:]); got != p.proof {
			t.Errorf("%s: sha256(Proof()) = %s, want %s", p.v.Kind, got, p.proof)
		}
	}
}

// TestRegistryOrdersMixedProtocols submits every pinned verdict in reverse
// and checks the canonical record order recorded alongside the pins.
func TestRegistryOrdersMixedProtocols(t *testing.T) {
	reg := judicial.NewRegistry()
	for i := len(verdictPins) - 1; i >= 0; i-- {
		reg.Submit(verdictPins[i].v)
	}
	want := []string{
		"r3 BadMessage against n2 by n7",
		"r3 MissingPropose against n4 by n9",
		"r3 RefusedAudit against n4 by n9",
		"r3 UnservedRequest against n6 by n2",
		"r3 Unresponsive against n13 by n4",
		"r3 DigestMismatch against n17 by n3",
		"r3 UnreportedExchange against n17 by n3",
		"r4 NoForward against n5 by n2",
		"r4 TamperedLog against n5 by n2",
		"r4 WrongForward against n5 by n2",
		"r4 BadAttestation against n5 by n8",
		"r4 MonitorSilent against n11 by n12",
	}
	proofs := make(map[string]string, len(verdictPins))
	for _, p := range verdictPins {
		proofs[p.key] = p.proof
	}
	recs := reg.Records()
	if len(recs) != len(want) {
		t.Fatalf("%d records, want %d", len(recs), len(want))
	}
	for i, rec := range recs {
		if got := rec.Key.String(); got != want[i] {
			t.Errorf("record %d = %q, want %q", i, got, want[i])
		}
		if got := hex.EncodeToString(rec.Digest[:]); got != proofs[want[i]] {
			t.Errorf("record %d digest %s, want %s", i, got, proofs[want[i]])
		}
		if rec.Verdict.Key() != rec.Key {
			t.Errorf("record %d holds %v under key %v", i, rec.Verdict, rec.Key)
		}
	}
}
