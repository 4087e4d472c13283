package acting

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/membership"
	"repro/internal/model"
	"repro/internal/securelog"
	"repro/internal/transport"
)

// Tests for the log's verified prefix: what a node retains, and that
// audits from a truncated log's base convict and exonerate exactly as
// audits from its genesis did (TestAuditVerdictsMatchParent pins the
// judicial facts against the parent commit).

const clusterAuditPeriod = 3 // newCluster's AuditPeriod

// countBaseReplies wraps c's deliveries, counting audit replies sent from
// a log's base.
func countBaseReplies(c *cluster) *atomic.Int64 {
	var n atomic.Int64
	c.deliver = func(node *Node, m transport.Message) {
		if m.Kind == kindAuditBaseReply {
			n.Add(1)
		}
		node.HandleMessage(m)
	}
	return &n
}

// TestRetentionStaticMonitors: with static monitor sets every node drops
// what all three of its monitors verified at each audit, so its log holds
// at most the entries of its last 2·AuditPeriod+1 rounds at every round —
// and no reply ever starts from a base, so audit traffic is unchanged.
func TestRetentionStaticMonitors(t *testing.T) {
	c := newCluster(t, 16, 0, nil, nil)
	baseReplies := countBaseReplies(c)
	for r := model.Round(1); r <= 60; r++ {
		c.engine.Run(1)
		for id, n := range c.nodes {
			for _, e := range n.log.Since(0) {
				if e.Round+2*clusterAuditPeriod+1 <= r {
					t.Fatalf("round %v: node %v still holds seq %d of round %v (base %d)",
						r, id, e.Seq, e.Round, n.log.Base())
				}
			}
			if len(n.verified) > 3 {
				t.Fatalf("round %v: node %v tracks %d monitors", r, id, len(n.verified))
			}
		}
	}
	for id, n := range c.nodes {
		if n.log.Base() == 0 {
			t.Errorf("node %v never truncated its log", id)
		}
		if err := securelog.VerifyChain(n.log.Base(), n.log.BaseHash(), n.log.Since(n.log.Base())); err != nil {
			t.Errorf("node %v: %v", id, err)
		}
	}
	if len(c.verdicts) != 0 {
		t.Fatalf("verdicts against correct nodes: %v", c.verdicts)
	}
	if got := baseReplies.Load(); got != 0 {
		t.Fatalf("%d audit replies from a base under static monitors", got)
	}
}

// TestAuditFromBaseUnderRotation: monitors re-drawn every 4 rounds audit
// every 3, so logs are truncated under one set and first audited from
// their base by the next. No correct node draws a verdict — serially and on
// four workers.
func TestAuditFromBaseUnderRotation(t *testing.T) {
	for _, workers := range []int{0, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			mcfg := membership.Config{Seed: 7, Fanout: 3, Monitors: 3, MonitorRotationRounds: 4}
			c := newClusterWith(t, mcfg, 16, workers, nil, nil)
			baseReplies := countBaseReplies(c)
			c.engine.Run(48)
			if len(c.verdicts) != 0 {
				t.Fatalf("verdicts against correct nodes: %v", c.verdicts)
			}
			if baseReplies.Load() == 0 {
				t.Fatal("no audit started from a log base")
			}
			for id, n := range c.nodes {
				if err := securelog.VerifyChain(n.log.Base(), n.log.BaseHash(), n.log.Since(n.log.Base())); err != nil {
					t.Errorf("node %v: %v", id, err)
				}
			}
		})
	}
}

// TestAuditTamperFromBase: a node that turns to rewriting its log after it
// was truncated rewrites the first entry past its base for a newly seated
// monitor, whose chain check from that base convicts it.
func TestAuditTamperFromBase(t *testing.T) {
	const cheat = model.NodeID(4)
	mcfg := membership.Config{Seed: 7, Fanout: 3, Monitors: 3, MonitorRotationRounds: 4}
	c := newClusterWith(t, mcfg, 16, 0, nil, nil)
	dir := c.nodes[cheat].cfg.Directory
	c.engine.Run(15) // audits at 12 and 15 share rotation epoch 3: truncated at 15
	base := c.nodes[cheat].log.Base()
	before, after := dir.Monitors(cheat, 15), dir.Monitors(cheat, 18)
	seated := slices.DeleteFunc(slices.Clone(after), func(m model.NodeID) bool { return slices.Contains(before, m) })
	if base == 0 || len(seated) == 0 {
		t.Fatalf("setup: base %d, monitors %v at round 15 and %v at 18", base, before, after)
	}
	c.nodes[cheat].SetBehavior(Behavior{TamperLog: true})
	c.engine.Run(3)

	want := fmt.Sprintf("seq %d fails", base+1)
	for _, v := range c.verdicts {
		if v.Accused != cheat {
			t.Fatalf("verdict against a correct node: %v", v)
		}
		if v.Round == 18 && v.Kind == VerdictTamperedLog && slices.Contains(seated, v.Reporter) &&
			strings.Contains(v.Detail, want) {
			return
		}
	}
	t.Fatalf("no monitor seated at round 18 caught the rewrite of seq %d; verdicts: %v", base+1, c.verdicts)
}

// TestAuditBaseNotPastVerifiedRejected: a base reply may only move a
// monitor forward — one at or below what it already verified would let the
// node rewrite audited history, and is a TamperedLog verdict.
func TestAuditBaseNotPastVerifiedRejected(t *testing.T) {
	c := newCluster(t, 5, 0, nil, nil)
	const y = model.NodeID(2)
	m := c.nodes[y].cfg.Directory.Monitors(y, 1)[0]
	monitor := c.nodes[m]
	monitor.audits[y] = &auditState{lastSeq: 10, lastRound: 3, waiting: true}
	reply := &auditReplyMsg{Round: 6, From: y, Base: &logBase{Seq: 10, Round: 3}}
	monitor.HandleMessage(transport.Message{From: y, To: m, Kind: kindAuditBaseReply,
		Payload: seal(t, reply, c.nodes[y].cfg.Identity)})
	if len(c.verdicts) != 1 || c.verdicts[0].Kind != VerdictTamperedLog || c.verdicts[0].Accused != y {
		t.Fatalf("verdicts %v, want one TamperedLog against %v", c.verdicts, y)
	}
	if st := monitor.audits[y]; st.lastSeq != 10 || st.lastRound != 3 {
		t.Fatalf("rejected base moved the monitor to seq %d round %v", st.lastSeq, st.lastRound)
	}
}
