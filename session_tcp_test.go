package pag

import (
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/transport"
)

// tcpSessionConfig is the loopback-socket analogue of the determinism
// harness's base config: every node of the session listens on an ephemeral
// 127.0.0.1 port, stepped delivery, inline engine.
func tcpSessionConfig(nodes int) SessionConfig {
	return SessionConfig{
		Nodes: nodes, StreamKbps: 2, UpdateBytes: 64, ModulusBits: 128, Seed: 7,
		NewNetwork: func() transport.FaultyNetwork {
			tn := transport.NewTCPNet(nil)
			tn.SetDynamic("127.0.0.1")
			tn.SetStepped(5 * time.Second)
			return tn
		},
	}
}

// TestTCPSessionScenarioReport: the acceptance path — a scripted scenario
// session runs entirely over loopback TCP sockets and produces a
// report with populated continuity/verdict metrics, structurally comparable
// to the MemNet report of the same script: same journal length (the
// timeline is seed-driven and transport-independent), same final
// membership, continuity in the same regime.
func TestTCPSessionScenarioReport(t *testing.T) {
	const nodes = 10
	sc, err := scenario.ByName("steady-churn", nodes, 2)
	if err != nil {
		t.Fatal(err)
	}
	sc.Seed = 7
	memReport, err := RunScenarioReport(SessionConfig{
		Nodes: nodes, StreamKbps: 2, UpdateBytes: 64, ModulusBits: 128, Seed: 7,
	}, sc, []Protocol{ProtocolPAG}, 1)
	if err != nil {
		t.Fatal(err)
	}
	memRun := memReport.Protocols[0]

	t.Run("tcp", func(t *testing.T) {
		report, err := RunScenarioReport(tcpSessionConfig(nodes), sc, []Protocol{ProtocolPAG}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if report.Engine == nil || report.Engine.Transport != "tcp" || report.Engine.Workers != 1 {
			t.Fatalf("engine metadata %+v, want one worker over tcp", report.Engine)
		}
		run := report.Protocols[0]
		if run.MeanContinuity <= 0.5 {
			t.Errorf("continuity %v over loopback; the stream did not flow", run.MeanContinuity)
		}
		if run.MeanBandwidthKbps <= 0 {
			t.Errorf("bandwidth %v; traffic accounting did not reach the report", run.MeanBandwidthKbps)
		}
		if len(run.Epochs) == 0 {
			t.Error("no epochs recorded under churn")
		}
		if len(run.Journal) == 0 || len(run.Journal) != len(memRun.Journal) {
			t.Errorf("journal lengths: mem=%d tcp=%d", len(memRun.Journal), len(run.Journal))
		}
		if run.FinalMembers != memRun.FinalMembers {
			t.Errorf("final members diverge: mem=%d tcp=%d", memRun.FinalMembers, run.FinalMembers)
		}
		if diff := memRun.MeanContinuity - run.MeanContinuity; diff > 0.3 || diff < -0.3 {
			t.Errorf("continuity regimes diverge: mem=%v tcp=%v", memRun.MeanContinuity, run.MeanContinuity)
		}
	})
}

// TestTCPSessionRejectsParallelEngine: the sharded engine's byte-identical
// contract rests on MemNet's canonical merge; more than one worker over a
// TCP transport must fail loudly, not silently degrade. One worker steps
// inline and is accepted.
func TestTCPSessionRejectsParallelEngine(t *testing.T) {
	cfg := tcpSessionConfig(8)
	cfg.Workers = 4
	if _, err := NewSession(cfg); err == nil {
		t.Fatal("sharded engine over TCP accepted")
	}
	cfg.Workers = 1
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatalf("one worker over TCP refused: %v", err)
	}
	s.Close()
}

// TestTCPSessionRejectsDirectDelivery: a TCPNet left in direct-delivery
// mode would run handlers on reader goroutines concurrently with node
// steps (AcTinG/RAC nodes carry no locks) — NewSession must refuse it.
func TestTCPSessionRejectsDirectDelivery(t *testing.T) {
	cfg := tcpSessionConfig(8)
	cfg.NewNetwork = func() transport.FaultyNetwork {
		tn := transport.NewTCPNet(nil)
		tn.SetDynamic("127.0.0.1")
		return tn // SetStepped deliberately omitted
	}
	_, err := NewSession(cfg)
	if err == nil || !strings.Contains(err.Error(), "stepped") {
		t.Fatalf("direct-mode TCPNet accepted: %v", err)
	}
}
