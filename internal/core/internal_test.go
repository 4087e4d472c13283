package core

import (
	"math/rand"
	"testing"

	"repro/internal/hhash"
	"repro/internal/model"
	"repro/internal/wire"
)

func testKey(t *testing.T, seed int64) hhash.Key {
	t.Helper()
	k, err := hhash.GeneratePrimeKey(rand.New(rand.NewSource(seed)), 64)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestDesignatedMonitorDeterministicAndInRange(t *testing.T) {
	monitors := []model.NodeID{4, 9, 17}
	seen := map[model.NodeID]bool{}
	for pred := model.NodeID(1); pred <= 40; pred++ {
		for r := model.Round(1); r <= 5; r++ {
			d1 := designatedMonitor(monitors, pred, r)
			d2 := designatedMonitor(monitors, pred, r)
			if d1 != d2 {
				t.Fatal("designation not deterministic")
			}
			found := false
			for _, m := range monitors {
				if m == d1 {
					found = true
				}
			}
			if !found {
				t.Fatalf("designated %v not a monitor", d1)
			}
			seen[d1] = true
		}
	}
	// Rotation: over many (pred, round) slots all monitors get work.
	if len(seen) != len(monitors) {
		t.Fatalf("only %d/%d monitors ever designated", len(seen), len(monitors))
	}
	if designatedMonitor(nil, 1, 1) != model.NoNode {
		t.Fatal("empty monitor set should yield NoNode")
	}
}

func TestRecvRoundProductAndRemainder(t *testing.T) {
	rr := newRecvRound()
	k1, k2, k3 := testKey(t, 1), testKey(t, 2), testKey(t, 3)
	for pred, k := range map[model.NodeID]hhash.Key{5: k1, 6: k2, 7: k3} {
		rr.exchanges[pred] = &recvExchange{prime: k}
		rr.order = append(rr.order, pred)
	}
	full := rr.productKey()
	for _, pred := range rr.order {
		rem := rr.remainderFor(pred)
		// rem × p_pred == K.
		if !rem.Mul(rr.exchanges[pred].prime).Equal(full) {
			t.Fatalf("remainder × prime != product for %v", pred)
		}
	}
	// Empty round: both are the identity.
	empty := newRecvRound()
	if !empty.productKey().Equal(hhash.OneKey()) {
		t.Fatal("empty product key not 1")
	}
}

func TestPeekRound(t *testing.T) {
	req := &wire.KeyRequest{Round: 42, From: 1, To: 2, Sig: []byte("s")}
	r, ok := peekRound(req.Marshal())
	if !ok || r != 42 {
		t.Fatalf("peekRound = %v, %v", r, ok)
	}
	if _, ok := peekRound([]byte{1, 2}); ok {
		t.Fatal("short payload peeked")
	}
}

func TestMustCountKey(t *testing.T) {
	k := mustCountKey(7)
	if k.Exponent().Uint64() != 7 {
		t.Fatal("count key exponent wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for count 0")
		}
	}()
	mustCountKey(0)
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewNode(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestBehaviorZeroValueCorrect(t *testing.T) {
	if !(Behavior{}).IsCorrect() {
		t.Fatal("zero behavior should be correct")
	}
	deviants := []Behavior{
		{SkipServeEvery: 2}, {DropUpdates: 1}, {NoAck: true},
		{IgnoreProbes: true}, {RefuseReceive: true},
		{SilentMonitor: true}, {SkipMonitorReport: true},
	}
	for i, b := range deviants {
		if b.IsCorrect() {
			t.Fatalf("deviant %d reported correct", i)
		}
	}
}
