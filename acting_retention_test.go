package pag

import (
	"testing"

	"repro/internal/acting"
	"repro/internal/scenario"
)

// TestActingAuditRetentionUnderRotationAndChurn: AcTinG nodes drop the log
// prefix their current monitors verified, and a monitor seated afterwards —
// by a rotation or by a churn epoch re-drawing the sets — audits from the
// log's base. Under steady churn with monitors re-drawn every 4 rounds and
// audits every 3 (so some logs are truncated under one set and first
// audited by the next), no correct node is convicted of a chain, proposal
// or serve fault. Crashed nodes may still draw RefusedAudit, as before.
func TestActingAuditRetentionUnderRotationAndChurn(t *testing.T) {
	sc, err := scenario.ByName("steady-churn", 24, 60)
	if err != nil {
		t.Fatal(err)
	}
	cfg := scenarioConfig(ProtocolAcTinG, 24, &sc)
	cfg.MonitorRotationRounds = 4
	cfg.AuditPeriod = 3
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Run(sc.Rounds)

	for _, v := range s.ActingVerdicts() {
		switch v.Kind {
		case acting.VerdictTamperedLog, acting.VerdictMissingPropose, acting.VerdictUnservedRequest:
			t.Errorf("correct node convicted: %v", v)
		}
	}
	truncated := 0
	for _, n := range s.actingNodes {
		if n.Log().Base() > 0 {
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
