package membership

import (
	"slices"
	"testing"

	"repro/internal/model"
	"repro/internal/stats"
)

func ids(n int) []model.NodeID {
	out := make([]model.NodeID, n)
	for i := range out {
		out[i] = model.NodeID(i + 1)
	}
	return out
}

func newDir(t *testing.T, n int, cfg Config) *Directory {
	t.Helper()
	if cfg.Fanout == 0 {
		cfg.Fanout = 3
	}
	if cfg.Monitors == 0 {
		cfg.Monitors = 3
	}
	d, err := New(ids(n), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewValidation(t *testing.T) {
	if _, err := New(ids(10), Config{Fanout: 0, Monitors: 3}); err == nil {
		t.Fatal("zero fanout accepted")
	}
	if _, err := New(ids(10), Config{Fanout: 3, Monitors: 0}); err == nil {
		t.Fatal("zero monitors accepted")
	}
	if _, err := New(ids(1), Config{Fanout: 3, Monitors: 3}); err == nil {
		t.Fatal("single node accepted")
	}
	if _, err := New(ids(4), Config{Fanout: 4, Monitors: 3}); err == nil {
		t.Fatal("fanout >= N accepted")
	}
	if _, err := New(ids(4), Config{Fanout: 3, Monitors: 4}); err == nil {
		t.Fatal("monitors >= N accepted")
	}
	if _, err := New([]model.NodeID{1, 1, 2, 3}, Config{Fanout: 2, Monitors: 2}); err == nil {
		t.Fatal("duplicate member accepted")
	}
	if _, err := New([]model.NodeID{model.NoNode, 2, 3, 4}, Config{Fanout: 2, Monitors: 2}); err == nil {
		t.Fatal("NoNode member accepted")
	}
}

func TestBasicProperties(t *testing.T) {
	d := newDir(t, 20, Config{Seed: 7})
	if d.N() != 20 || d.Fanout() != 3 {
		t.Fatal("accessors wrong")
	}
	if !d.Contains(5) || d.Contains(99) {
		t.Fatal("Contains wrong")
	}
	ns := d.Nodes()
	if len(ns) != 20 {
		t.Fatal("Nodes length")
	}
	ns[0] = 999
	if d.Nodes()[0] == 999 {
		t.Fatal("Nodes must return a copy")
	}
}

func TestSuccessorsShape(t *testing.T) {
	d := newDir(t, 50, Config{Seed: 1})
	for _, x := range d.Nodes() {
		for r := model.Round(1); r <= 5; r++ {
			succ := d.Successors(x, r)
			if len(succ) != 3 {
				t.Fatalf("node %v round %v: %d successors", x, r, len(succ))
			}
			seen := map[model.NodeID]bool{}
			for _, s := range succ {
				if s == x {
					t.Fatalf("node %v is its own successor", x)
				}
				if seen[s] {
					t.Fatalf("duplicate successor %v for %v", s, x)
				}
				seen[s] = true
				if !d.Contains(s) {
					t.Fatalf("successor %v not a member", s)
				}
			}
		}
	}
}

func TestDeterminismAcrossDirectories(t *testing.T) {
	d1 := newDir(t, 64, Config{Seed: 99})
	d2 := newDir(t, 64, Config{Seed: 99})
	for _, x := range []model.NodeID{1, 17, 64} {
		for r := model.Round(1); r <= 4; r++ {
			s1, s2 := d1.Successors(x, r), d2.Successors(x, r)
			if len(s1) != len(s2) {
				t.Fatal("length mismatch")
			}
			for i := range s1 {
				if s1[i] != s2[i] {
					t.Fatalf("divergent assignment for %v at %v", x, r)
				}
			}
			m1, m2 := d1.Monitors(x, r), d2.Monitors(x, r)
			for i := range m1 {
				if m1[i] != m2[i] {
					t.Fatalf("divergent monitors for %v", x)
				}
			}
		}
	}
}

func TestSeedChangesAssignment(t *testing.T) {
	d1 := newDir(t, 64, Config{Seed: 1})
	d2 := newDir(t, 64, Config{Seed: 2})
	same := 0
	for _, x := range d1.Nodes() {
		s1, s2 := d1.Successors(x, 1), d2.Successors(x, 1)
		equal := true
		for i := range s1 {
			if s1[i] != s2[i] {
				equal = false
				break
			}
		}
		if equal {
			same++
		}
	}
	if same > 8 {
		t.Fatalf("%d/64 nodes share successor sets across different seeds", same)
	}
}

func TestRoundsChangeAssignment(t *testing.T) {
	d := newDir(t, 64, Config{Seed: 5})
	same := 0
	for _, x := range d.Nodes() {
		s1, s2 := d.Successors(x, 1), d.Successors(x, 2)
		equal := true
		for i := range s1 {
			if s1[i] != s2[i] {
				equal = false
				break
			}
		}
		if equal {
			same++
		}
	}
	if same > 8 {
		t.Fatalf("%d/64 nodes kept their successors across rounds", same)
	}
}

func TestPredecessorsAreInverse(t *testing.T) {
	d := newDir(t, 40, Config{Seed: 3})
	v := d.View(7)
	// pred(x) contains y  ⇔  succ(y) contains x.
	for _, x := range d.Nodes() {
		for _, p := range v.Predecessors(x) {
			found := false
			for _, s := range v.Successors(p) {
				if s == x {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("%v listed as predecessor of %v but lacks the edge", p, x)
			}
		}
	}
	// Edge count conservation: Σ|succ| == Σ|pred| == N·f.
	total := 0
	for _, x := range d.Nodes() {
		total += len(v.Predecessors(x))
	}
	if total != d.N()*d.Fanout() {
		t.Fatalf("edge conservation broken: %d != %d", total, d.N()*d.Fanout())
	}
}

func TestPredecessorCountsRoughlyUniform(t *testing.T) {
	d := newDir(t, 200, Config{Seed: 11})
	counts := make([]int, 0, 200)
	v := d.View(3)
	for _, x := range d.Nodes() {
		counts = append(counts, len(v.Predecessors(x)))
	}
	// Binomial(N·f, 1/N): mean 3. No node should be wildly unserved.
	zero := 0
	for _, c := range counts {
		if c == 0 {
			zero++
		}
	}
	// P(zero preds) = (1-f/N)^N ≈ e^-3 ≈ 5%; allow generous slack.
	if zero > 30 {
		t.Fatalf("%d/200 nodes have no predecessor", zero)
	}
}

func TestSelectionUniformity(t *testing.T) {
	d := newDir(t, 50, Config{Seed: 13})
	counts := make([]int, 51)
	for r := model.Round(1); r <= 200; r++ {
		for _, s := range d.Successors(1, r) {
			counts[s]++
		}
	}
	// Node 1 never selects itself.
	if counts[1] != 0 {
		t.Fatal("self-selection happened")
	}
	chi := stats.ChiSquareUniform(counts[2:])
	// 48 dof; p=0.001 critical ≈ 85. Allow headroom for PRNG noise.
	if chi > 100 {
		t.Fatalf("successor selection far from uniform: chi2 = %v", chi)
	}
}

func TestMonitorsStaticByDefault(t *testing.T) {
	d := newDir(t, 30, Config{Seed: 17})
	m1 := d.Monitors(4, 1)
	m2 := d.Monitors(4, 500)
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatal("static monitors changed across rounds")
		}
	}
	if len(m1) != 3 {
		t.Fatalf("%d monitors, want 3", len(m1))
	}
	for _, m := range m1 {
		if m == 4 {
			t.Fatal("node monitors itself")
		}
	}
}

// monitorsAtSeed17 is Monitors(x, r) for x = 1…30 over 30 members at seed
// 17, as recorded before monitor rotation was removed: dropping rotation
// must move no monitor set.
var monitorsAtSeed17 = map[model.NodeID][]model.NodeID{
	1:  {9, 11, 27},
	2:  {18, 23, 27},
	3:  {1, 23, 26},
	4:  {9, 10, 25},
	5:  {7, 15, 18},
	6:  {14, 29, 30},
	7:  {2, 17, 30},
	8:  {2, 7, 20},
	9:  {6, 19, 20},
	10: {4, 7, 16},
	11: {5, 6, 12},
	12: {4, 23, 28},
	13: {1, 9, 30},
	14: {3, 12, 27},
	15: {6, 7, 30},
	16: {12, 17, 20},
	17: {3, 8, 12},
	18: {8, 11, 27},
	19: {8, 18, 23},
	20: {1, 10, 12},
	21: {5, 12, 24},
	22: {2, 4, 28},
	23: {1, 9, 15},
	24: {5, 8, 17},
	25: {15, 26, 29},
	26: {12, 20, 23},
	27: {3, 4, 21},
	28: {2, 6, 29},
	29: {1, 4, 23},
	30: {5, 10, 28},
}

// TestMonitorsPinned: with membership fixed, every monitor set is the same
// at every round and equal to the recorded one.
func TestMonitorsPinned(t *testing.T) {
	d := newDir(t, 30, Config{Seed: 17})
	for _, r := range []model.Round{1, 50, 1_000_000} {
		for x := model.NodeID(1); x <= 30; x++ {
			if got := d.Monitors(x, r); !slices.Equal(got, monitorsAtSeed17[x]) {
				t.Errorf("Monitors(%v, %v) = %v, recorded %v", x, r, got, monitorsAtSeed17[x])
			}
		}
	}
}

// TestMonitorsHitAllocatesNothing: a memo hit returns the memo itself,
// which every caller only reads.
func TestMonitorsHitAllocatesNothing(t *testing.T) {
	d := newDir(t, 30, Config{Seed: 17})
	if got := testing.AllocsPerRun(100, func() { d.Monitors(4, 1) }); got != 0 {
		t.Errorf("a memoised Monitors call allocates %.1f objects", got)
	}
}

func TestIsMonitorOf(t *testing.T) {
	d := newDir(t, 30, Config{Seed: 17})
	ms := d.Monitors(9, 1)
	for _, m := range ms {
		if !d.IsMonitorOf(m, 9, 1) {
			t.Fatalf("%v should monitor 9", m)
		}
	}
	if d.IsMonitorOf(9, 9, 1) {
		t.Fatal("node is its own monitor")
	}
}

func TestViewCacheEviction(t *testing.T) {
	d := newDir(t, 20, Config{Seed: 23})
	// Touch more rounds than the cache keeps; must still be consistent.
	first := d.Successors(3, 1)
	for r := model.Round(1); r <= 40; r++ {
		d.View(r)
	}
	again := d.Successors(3, 1) // rebuilt after eviction
	for i := range first {
		if first[i] != again[i] {
			t.Fatal("rebuilt view differs from original")
		}
	}
}

func TestFanoutLargerThanHalf(t *testing.T) {
	// Small system, fanout close to N.
	d, err := New(ids(5), Config{Seed: 1, Fanout: 4, Monitors: 4})
	if err != nil {
		t.Fatal(err)
	}
	succ := d.Successors(1, 1)
	if len(succ) != 4 {
		t.Fatalf("%d successors, want 4 (everyone else)", len(succ))
	}
}

func BenchmarkView1000(b *testing.B) {
	d, err := New(ids(1000), Config{Seed: 1, Fanout: 3, Monitors: 3})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.View(model.Round(i)) // always a cache miss
	}
}

// TestSlotIsPredecessorRank: a predecessor's exchange slot is its rank in
// the successor's ascending predecessor list, capped at fanout−1 — the
// same answer on every call and from a directory any other member builds —
// and it is defined from a joiner's first round, in both directions.
func TestSlotIsPredecessorRank(t *testing.T) {
	const fanout, join = 3, model.Round(6)
	d := newDir(t, 40, Config{Seed: 11, Fanout: fanout})
	peer := newDir(t, 40, Config{Seed: 11, Fanout: fanout})
	const joiner = model.NodeID(41)
	for _, dir := range []*Directory{d, peer} {
		if err := dir.Join(joiner, join); err != nil {
			t.Fatal(err)
		}
	}
	shared, joinerSlots := 0, 0
	for r := model.Round(1); r <= 12; r++ {
		for _, b := range d.MembersAt(r) {
			preds := d.Predecessors(b, r)
			for rank, a := range preds {
				if rank > 0 && preds[rank-1] >= a {
					t.Fatalf("round %d: predecessors of %v not strictly ascending: %v", r, b, preds)
				}
				slot, ok := d.ExchangeSlot(a, b, r)
				if !ok || slot != min(rank, fanout-1) {
					t.Fatalf("round %d: %v→%v has rank %d of %d, slot %d (ok %v)", r, a, b, rank, len(preds), slot, ok)
				}
				if again, _ := d.ExchangeSlot(a, b, r); again != slot {
					t.Fatalf("round %d: %v→%v slot moved %d → %d", r, a, b, slot, again)
				}
				if theirs, ok := peer.ExchangeSlot(a, b, r); !ok || theirs != slot {
					t.Fatalf("round %d: %v→%v is slot %d here, %d in a peer's directory", r, a, b, slot, theirs)
				}
				if rank >= fanout {
					shared++
				}
				if a == joiner || b == joiner {
					if r < join {
						t.Fatalf("round %d: %v exchanges before it joined", r, joiner)
					}
					if r == join {
						joinerSlots++
					}
				}
			}
		}
	}
	if shared == 0 {
		t.Fatal("no successor had more than fanout predecessors: the cap was not exercised")
	}
	if joinerSlots < fanout {
		t.Fatalf("the joiner had %d exchanges in its first round, want at least its own %d", joinerSlots, fanout)
	}
	if _, ok := d.ExchangeSlot(1, 1, 3); ok {
		t.Fatal("a node is not its own predecessor")
	}
}
