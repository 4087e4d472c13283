package membership

import (
	"testing"

	"repro/internal/model"
)

func TestMonitorEpochStatic(t *testing.T) {
	d := newDir(t, 20, Config{Seed: 1})
	if d.MonitorEpoch(1) != 0 || d.MonitorEpoch(999) != 0 {
		t.Fatal("without churn the epoch should be constant")
	}
}

func sameIDs(a, b []model.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestJoinOpensEpochAndRedraws: a join re-draws successor and monitor
// assignments from its effective round on, while earlier rounds keep the
// assignment the participants acted under.
func TestJoinOpensEpochAndRedraws(t *testing.T) {
	d := newDir(t, 20, Config{Seed: 3})
	before := d.Successors(4, 10)
	monBefore := d.Monitors(4, 10)

	if err := d.Join(21, 10); err != nil {
		t.Fatal(err)
	}
	if len(d.epochs) != 2 || d.epochFor(9).seq != 0 || d.epochFor(10).seq != 1 {
		t.Fatalf("epoch bookkeeping wrong: %d epochs, idx(9)=%d, idx(10)=%d",
			len(d.epochs), d.epochFor(9).seq, d.epochFor(10).seq)
	}
	if sameIDs(before, d.Successors(4, 10)) && sameIDs(monBefore, d.Monitors(4, 10)) {
		t.Fatal("join did not re-draw round-10 assignments")
	}
	if !d.ContainsAt(21, 10) || d.ContainsAt(21, 9) {
		t.Fatal("member visibility does not respect the epoch boundary")
	}
	// The joiner is assignable from its epoch on.
	if got := d.Successors(21, 10); len(got) != 3 {
		t.Fatalf("joiner has %d successors, want 3", len(got))
	}
}

// TestLeaveExcludesFromLaterRounds: after a leave, the departed node no
// longer appears in any assignment of the new epoch, but round-(r-1)
// assignments — which monitors still verify during round r — are intact.
func TestLeaveExcludesFromLaterRounds(t *testing.T) {
	d := newDir(t, 20, Config{Seed: 5})
	prevView := d.Successors(7, 14)

	if err := d.Leave(13, 15); err != nil {
		t.Fatal(err)
	}
	for _, x := range d.Nodes() {
		for _, s := range d.Successors(x, 15) {
			if s == 13 {
				t.Fatalf("departed node 13 still a successor of %v", x)
			}
		}
		for _, m := range d.Monitors(x, 15) {
			if m == 13 {
				t.Fatalf("departed node 13 still a monitor of %v", x)
			}
		}
	}
	if !sameIDs(prevView, d.Successors(7, 14)) {
		t.Fatal("leave rewrote a pre-transition round's assignment")
	}
	if !d.ContainsAt(13, 14) || d.ContainsAt(13, 15) {
		t.Fatal("departed node's epoch visibility wrong")
	}
}

// TestMembershipMutationValidation: duplicate joins, unknown leaves, and
// leaves that would shrink the system below the fanout are rejected.
func TestMembershipMutationValidation(t *testing.T) {
	d := newDir(t, 4, Config{Seed: 1, Fanout: 3, Monitors: 3})
	if err := d.Join(3, 1); err == nil {
		t.Fatal("duplicate join accepted")
	}
	if err := d.Join(model.NoNode, 1); err == nil {
		t.Fatal("NoNode join accepted")
	}
	if err := d.Leave(99, 1); err == nil {
		t.Fatal("leave of non-member accepted")
	}
	if err := d.Leave(2, 1); err == nil {
		t.Fatal("leave below fanout accepted")
	}
	if err := d.Join(6, 5); err != nil {
		t.Fatal(err)
	}
	if err := d.Leave(2, 3); err == nil {
		t.Fatal("mutation predating the current epoch accepted")
	}
}

// TestMonitorEpochChangesOnMembership: MonitorEpoch is the cache key
// protocol nodes use to refresh their inverse monitor index; it must move
// at membership transitions.
func TestMonitorEpochChangesOnMembership(t *testing.T) {
	d := newDir(t, 20, Config{Seed: 9})
	e0 := d.MonitorEpoch(4)
	if err := d.Join(40, 5); err != nil {
		t.Fatal(err)
	}
	if d.MonitorEpoch(4) != e0 {
		t.Fatal("pre-transition MonitorEpoch changed")
	}
	if d.MonitorEpoch(5) == e0 {
		t.Fatal("MonitorEpoch did not change at the membership transition")
	}
}

// TestMonitorSetsDifferAcrossNodes: two nodes rarely share their full
// monitor set (independence of assignments).
func TestMonitorSetsDifferAcrossNodes(t *testing.T) {
	d := newDir(t, 50, Config{Seed: 2})
	same := 0
	prev := d.Monitors(1, 1)
	for id := model.NodeID(2); id <= 50; id++ {
		cur := d.Monitors(id, 1)
		equal := len(cur) == len(prev)
		for i := range cur {
			if !equal || cur[i] != prev[i] {
				equal = false
				break
			}
		}
		if equal {
			same++
		}
		prev = cur
	}
	if same > 5 {
		t.Fatalf("%d/49 adjacent nodes share monitor sets", same)
	}
}
