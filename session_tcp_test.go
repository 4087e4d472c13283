package pag

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/transport"
	"repro/internal/wire"
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
// session runs entirely over loopback TCP sockets and produces a report
// with populated continuity/verdict metrics, and that report is the MemNet
// report of the same script, byte for byte.
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
		if d := report.Digest(); d != memReport.Digest() {
			t.Errorf("tcp report digest %s differs from the MemNet run's %s", d, memReport.Digest())
		}
	})
}

// TestTCPSendOwnership: senders lend TCP Send pooled Writer bytes, on the
// promise that a socket copies each frame into its connection's batch
// buffer before Send returns. A writer that kept a caller's slice until
// its phase flush would put whatever the pool wrote there since on the
// wire. With wire.PoisonReleased every such buffer is overwritten the
// moment it is released; a PAG and an AcTinG session over stepped sockets
// must still reach the report and move the bytes per node of the run
// without it.
func TestTCPSendOwnership(t *testing.T) {
	const nodes, rounds = 24, 20
	sc := scenario.Scenario{Name: "send-ownership", Seed: 7, Rounds: rounds}
	type outcome struct {
		digest  string
		traffic []transport.Traffic
	}
	run := func(t *testing.T, p Protocol, poison bool) outcome {
		if poison {
			defer wire.PoisonReleased()()
		}
		var tn *transport.TCPNet
		cfg := tcpSessionConfig(nodes)
		cfg.StreamKbps, cfg.UpdateBytes = 16, 128
		cfg.NewNetwork = func() transport.FaultyNetwork {
			tn = transport.NewTCPNet(nil)
			tn.SetDynamic("127.0.0.1")
			tn.SetStepped(5 * time.Second)
			return tn
		}
		rep, err := RunScenarioReport(cfg, sc, []Protocol{p}, 1)
		if err != nil {
			t.Fatal(err)
		}
		o := outcome{digest: rep.Digest()}
		for id := NodeID(1); id <= nodes; id++ {
			o.traffic = append(o.traffic, tn.TrafficOf(id))
		}
		return o
	}
	for _, p := range []Protocol{ProtocolPAG, ProtocolAcTinG} {
		t.Run(p.String(), func(t *testing.T) {
			want := run(t, p, false)
			got := run(t, p, true)
			if got.digest != want.digest {
				t.Errorf("report digest %s with released buffers poisoned, %s without", got.digest, want.digest)
			}
			for i := range want.traffic {
				if got.traffic[i] != want.traffic[i] {
					t.Errorf("node %d traffic %+v with released buffers poisoned, %+v without", i+1, got.traffic[i], want.traffic[i])
				}
			}
		})
	}
}

// TestMemNetLentOwnership is TestTCPSendOwnership's MemNet twin. MemNet
// keeps what Send is given, so a lent buffer is copied into its send
// arena, whose chunks are recycled once the messages sent from them have
// been handled. With wire.PoisonReleased every recycled chunk is
// overwritten, and so is each PAG node's evidence buffer when BeginRound
// rewinds it: a handler that kept a payload, a chunk recycled under a
// view still in flight — on the sharded engine, another shard's lends
// retire chunks too — or evidence still read after its round would change
// the run. A PAG and an AcTinG session,
// inline and on four workers, must reach the report and move the bytes
// per node of the run without it.
func TestMemNetLentOwnership(t *testing.T) {
	const nodes, rounds = 24, 20
	sc := scenario.Scenario{Name: "lent-ownership", Seed: 7, Rounds: rounds}
	type outcome struct {
		digest  string
		traffic []transport.Traffic
	}
	run := func(t *testing.T, p Protocol, workers int, poison bool) outcome {
		if poison {
			defer wire.PoisonReleased()()
		}
		var mem *transport.MemNet
		cfg := SessionConfig{
			Nodes: nodes, StreamKbps: 16, UpdateBytes: 128, ModulusBits: 128, Seed: 7,
			Workers: workers,
			NewNetwork: func() transport.FaultyNetwork {
				mem = transport.NewMemNet()
				return mem
			},
		}
		rep, err := RunScenarioReport(cfg, sc, []Protocol{p}, 1)
		if err != nil {
			t.Fatal(err)
		}
		o := outcome{digest: rep.Digest()}
		for id := NodeID(1); id <= nodes; id++ {
			o.traffic = append(o.traffic, mem.TrafficOf(id))
		}
		return o
	}
	for _, p := range []Protocol{ProtocolPAG, ProtocolAcTinG} {
		for _, workers := range []int{0, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", p, workers), func(t *testing.T) {
				want := run(t, p, workers, false)
				got := run(t, p, workers, true)
				if got.digest != want.digest {
					t.Errorf("report digest %s with recycled chunks poisoned, %s without", got.digest, want.digest)
				}
				for i := range want.traffic {
					if got.traffic[i] != want.traffic[i] {
						t.Errorf("node %d traffic %+v with recycled chunks poisoned, %+v without", i+1, got.traffic[i], want.traffic[i])
					}
				}
			})
		}
	}
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
