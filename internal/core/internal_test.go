package core

import (
	"encoding/binary"
	"io"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/hhash"
	"repro/internal/membership"
	"repro/internal/model"
	"repro/internal/pki"
	"repro/internal/transport"
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

// attestationCheck builds a one-node PAG deployment whose batch verifier
// draws its coefficients from coeffRand (nil: the Config default) and lets
// the test play a predecessor's attestation against it.
type attestationCheck struct {
	node     *Node
	hasher   *hhash.Hasher
	verdicts []Verdict
	exp, fwd *big.Int // the served content's embedded products
	prime    hhash.Key
}

func newAttestationCheck(t *testing.T, id model.NodeID, coeffRand io.Reader) *attestationCheck {
	t.Helper()
	c := &attestationCheck{}
	suite := pki.NewFastSuite()
	identity, err := suite.NewIdentity(id)
	if err != nil {
		t.Fatal(err)
	}
	params, err := hhash.GenerateParams(rand.New(rand.NewSource(3)), 128)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := membership.New([]model.NodeID{1, 2, 3, 4, 5, 6, 7, 8}, membership.Config{Seed: 1, Fanout: 3, Monitors: 3})
	if err != nil {
		t.Fatal(err)
	}
	ep, err := transport.NewMemNet().Register(id, func(transport.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	c.node, err = NewNode(Config{
		ID: id, Suite: suite, Identity: identity, HashParams: params, Directory: dir,
		Endpoint: ep, Sources: []model.NodeID{1}, PrimeBits: 128, CoeffRand: coeffRand,
		Verdicts: func(v Verdict) { c.verdicts = append(c.verdicts, v) },
	})
	if err != nil {
		t.Fatal(err)
	}
	c.hasher = hhash.NewHasher(params, nil)
	c.exp, c.fwd = c.hasher.Embed([]byte("expiring updates")), c.hasher.Embed([]byte("forwardable updates"))
	c.prime = testKey(t, 77)
	return c
}

// accepts reports whether the node acknowledges an exchange whose Serve
// carried c.exp / c.fwd and whose Attestation claims hExp / hFwd.
func (c *attestationCheck) accepts(t *testing.T, hExp, hFwd *big.Int) bool {
	t.Helper()
	const pred = model.NodeID(2)
	params := c.hasher.Params()
	att := &wire.Attestation{Round: 1, From: pred, To: c.node.id, Sig: []byte("s")}
	var err error
	if att.HExpiring, err = params.EncodeValue(hExp); err != nil {
		t.Fatal(err)
	}
	if att.HForwardable, err = params.EncodeValue(hFwd); err != nil {
		t.Fatal(err)
	}
	ex := &recvExchange{prime: c.prime, expEmbed: c.exp, fwdEmbed: c.fwd,
		kPrevA: hhash.OneKey(), attBytes: att.Marshal()}
	c.verdicts = nil
	c.node.maybeAck(pred, ex)
	for _, v := range c.verdicts {
		if v.Kind != VerdictBadAttestation || v.Accused != pred {
			t.Fatalf("unexpected verdict %v", v)
		}
	}
	return ex.ackBytes != nil && len(c.verdicts) == 0
}

// cancellingForgery returns two attestation hashes that are both wrong yet
// satisfy the folded equation ∏ vᵢ^(cᵢ·p) = ∏ aᵢ^(cᵢ) for the coefficients
// (c₁, c₂) the next VerifyBatch call will read from coeffs: the honest
// values times g^c₂ and g^(−c₁), whose errors multiply out to
// g^(c₁c₂ − c₁c₂) = 1.
func (c *attestationCheck) cancellingForgery(t *testing.T, coeffs io.Reader) (hExp, hFwd *big.Int) {
	t.Helper()
	var buf [16]byte
	if _, err := io.ReadFull(coeffs, buf[:]); err != nil {
		t.Fatal(err)
	}
	c1 := new(big.Int).SetUint64(binary.BigEndian.Uint64(buf[:8]))
	c2 := new(big.Int).SetUint64(binary.BigEndian.Uint64(buf[8:]))
	m := c.hasher.Params().Modulus()
	g := big.NewInt(3)
	gInv := new(big.Int).ModInverse(g, m)
	if gInv == nil {
		t.Fatal("3 divides the modulus")
	}
	hExp = c.hasher.Lift(c.exp, c.prime)
	hExp.Mul(hExp, new(big.Int).Exp(g, c2, m)).Mod(hExp, m)
	hFwd = c.hasher.Lift(c.fwd, c.prime)
	hFwd.Mul(hFwd, new(big.Int).Exp(gInv, c1, m)).Mod(hFwd, m)
	return hExp, hFwd
}

// TestBatchCoefficientsAreSecret: a predecessor who knows the batch
// verifier's next two coefficients gets a wrong attestation pair
// acknowledged; the coefficients a node really uses — crypto/rand by
// default, a session-seeded stream in simulations — are not the function of
// its public id they used to be, and the same forgery is a BadAttestation.
func TestBatchCoefficientsAreSecret(t *testing.T) {
	const id = model.NodeID(5)
	// What the verifier seeded itself with before Config.CoeffRand existed.
	fromPublicID := func() io.Reader { return newCoeffStream(uint64(id)) }

	t.Run("honest pair accepted", func(t *testing.T) {
		c := newAttestationCheck(t, id, nil)
		if !c.accepts(t, c.hasher.Lift(c.exp, c.prime), c.hasher.Lift(c.fwd, c.prime)) {
			t.Fatalf("honest attestation refused: %v", c.verdicts)
		}
	})
	t.Run("known coefficients: forgery accepted", func(t *testing.T) {
		c := newAttestationCheck(t, id, fromPublicID())
		hExp, hFwd := c.cancellingForgery(t, fromPublicID())
		if hExp.Cmp(c.hasher.Lift(c.exp, c.prime)) == 0 || hFwd.Cmp(c.hasher.Lift(c.fwd, c.prime)) == 0 {
			t.Fatal("the forged pair is not wrong")
		}
		if !c.accepts(t, hExp, hFwd) {
			t.Fatal("the cancelling pair did not pass the folded equation it was built for")
		}
	})
	for name, coeffRand := range map[string]io.Reader{
		"default entropy": nil,
		"session stream":  SeededCoeffs(1, id),
	} {
		t.Run(name+": forgery rejected", func(t *testing.T) {
			c := newAttestationCheck(t, id, coeffRand)
			if hExp, hFwd := c.cancellingForgery(t, fromPublicID()); c.accepts(t, hExp, hFwd) {
				t.Fatal("a forgery built from the node's public id was acknowledged")
			}
			if len(c.verdicts) != 1 {
				t.Fatalf("verdicts %v, want one BadAttestation", c.verdicts)
			}
		})
	}
}
