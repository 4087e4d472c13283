package pag

import (
	"testing"

	"repro/internal/acting"
	"repro/internal/scenario"
)

// TestActingAuditRetentionUnderRotationAndChurn: AcTinG nodes drop the log
// prefix their current monitors verified, and a monitor seated afterwards —
// by a churn epoch re-seating the sets it belonged to — audits from the
// log's base. Under steady churn with audits every 5 rounds (the default;
// epochs open between audits, so some logs are truncated under one set and
// first audited by the next), no correct node is convicted of a chain,
// proposal or serve fault. Crashed nodes may still draw RefusedAudit, as
// before.
func TestActingAuditRetentionUnderRotationAndChurn(t *testing.T) {
	sc, err := scenario.ByName("steady-churn", 24, 60)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(scenarioConfig(ProtocolAcTinG, 24, &sc))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Run(sc.Rounds)

	for _, v := range s.Verdicts() {
		switch v.Kind {
		case acting.VerdictTamperedLog, acting.VerdictMissingPropose, acting.VerdictUnservedRequest:
			t.Errorf("correct node convicted: %v", v)
		}
	}
	truncated := 0
	for _, m := range s.members {
		if m.(*acting.Node).Log().Base() > 0 {
			truncated++
		}
	}
	if truncated == 0 {
		t.Fatal("no log was ever truncated")
	}
	if len(s.EpochStats()) < 2 {
		t.Fatal("the script opened no membership epoch")
	}
}
