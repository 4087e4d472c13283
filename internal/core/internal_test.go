package core

import (
	crand "crypto/rand"
	"encoding/binary"
	"io"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/hhash"
	"repro/internal/judicial"
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

func TestConfigValidation(t *testing.T) {
	suite := pki.NewFastSuite()
	identity, err := suite.NewIdentity(1)
	if err != nil {
		t.Fatal(err)
	}
	params, err := hhash.GenerateParams(rand.New(rand.NewSource(3)), 64)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := membership.New([]model.NodeID{1, 2, 3, 4, 5}, membership.Config{Seed: 1, Fanout: 3, Monitors: 3})
	if err != nil {
		t.Fatal(err)
	}
	ep, err := transport.NewMemNet().Register(1, func(transport.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	shared := Shared{Suite: suite, HashParams: params, Directory: dir, Source: 1}
	valid := func() Config {
		return Config{ID: 1, Identity: identity, Endpoint: ep, Shared: NewShared(shared)}
	}
	for _, tc := range []struct {
		name string
		edit func(*Config)
		ok   bool
	}{
		{"valid", func(*Config) {}, true},
		{"empty", func(c *Config) { *c = Config{} }, false},
		{"nil Shared", func(c *Config) { c.Shared = nil }, false},
		{"no identity", func(c *Config) { c.Identity = nil }, false},
		{"foreign identity", func(c *Config) { c.ID = 2 }, false},
		{"no endpoint", func(c *Config) { c.Endpoint = nil }, false},
		{"no suite", func(c *Config) { sh := shared; sh.Suite = nil; c.Shared = NewShared(sh) }, false},
		{"no directory", func(c *Config) { sh := shared; sh.Directory = nil; c.Shared = NewShared(sh) }, false},
		{"no hash parameters", func(c *Config) { sh := shared; sh.HashParams = hhash.Params{}; c.Shared = NewShared(sh) }, false},
		// A modulus under 8 bits leaves no prime width to draw from: the
		// node fails at construction, not at its first exchange.
		{"7-bit modulus", func(c *Config) {
			sh := shared
			if sh.HashParams, err = hhash.ParamsFromModulus(big.NewInt(127)); err != nil {
				t.Fatal(err)
			}
			c.Shared = NewShared(sh)
		}, false},
	} {
		cfg := valid()
		tc.edit(&cfg)
		if _, err := NewNode(cfg); (err == nil) != tc.ok {
			t.Errorf("%s: NewNode error = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestBehaviorZeroValueCorrect: the "correct" profile is the zero
// Behavior, whose every deviation knob is off, and every deviant profile
// turns at least one on.
func TestBehaviorZeroValueCorrect(t *testing.T) {
	if b, ok := BehaviorForProfile("correct"); !ok || b != (Behavior{}) {
		t.Fatalf("correct profile = %+v, %v; want the zero Behavior", b, ok)
	}
	for _, p := range []string{"free-rider", "colluder", "rotation-dodger"} {
		if b, ok := BehaviorForProfile(p); !ok || b == (Behavior{}) {
			t.Errorf("%s profile = %+v, %v; want a deviation", p, b, ok)
		}
	}
}

// attestationCheck builds a one-node PAG deployment and lets the test play
// a predecessor's attestation against it.
type attestationCheck struct {
	node     *Node
	hasher   *hhash.Hasher
	verdicts []judicial.Verdict
	exp, fwd *big.Int // the served content's embedded products
	prime    hhash.Key
	hashOps  uint64 // what the node's last check added to its counter
}

func newAttestationCheck(t *testing.T, id model.NodeID) *attestationCheck {
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
		ID: id, Identity: identity, Endpoint: ep,
		Shared:   NewShared(Shared{Suite: suite, HashParams: params, Directory: dir, Source: 1}),
		Verdicts: func(v judicial.Verdict) { c.verdicts = append(c.verdicts, v) },
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
	params := c.hasher.Params()
	encExp, err := params.EncodeValue(hExp)
	if err != nil {
		t.Fatal(err)
	}
	encFwd, err := params.EncodeValue(hFwd)
	if err != nil {
		t.Fatal(err)
	}
	return c.acceptsEncoded(t, encExp, encFwd)
}

// acceptsEncoded is accepts on the attestation's wire values as they are.
func (c *attestationCheck) acceptsEncoded(t *testing.T, hExp, hFwd []byte) bool {
	t.Helper()
	const pred = model.NodeID(2)
	att := &wire.Attestation{Round: 1, From: pred, To: c.node.id, Sig: []byte("s"),
		HExpiring: hExp, HForwardable: hFwd}
	ex := &recvExchange{prime: c.prime, served: true, kPrevA: hhash.OneKey(), attBytes: att.Marshal()}
	c.node.hasher.Mul(&ex.exp, c.exp, 1)
	c.node.hasher.Mul(&ex.fwd, c.fwd, 1)
	c.verdicts = nil
	before := c.node.hops.HashOps()
	c.node.maybeAck(pred, ex)
	c.hashOps = c.node.hops.HashOps() - before
	for _, v := range c.verdicts {
		if v.Kind != VerdictBadAttestation || v.Accused != pred {
			t.Fatalf("unexpected verdict %v", v)
		}
	}
	return ex.ackBytes != nil && len(c.verdicts) == 0
}

// cancellingForgery returns two attestation hashes that are both wrong yet
// satisfy the small-exponent batch equation ∏ vᵢ^(cᵢ·p) = ∏ aᵢ^(cᵢ) for
// the next two coefficients (c₁, c₂) of coeffs: the honest values times
// g^c₂ and g^(−c₁), whose errors multiply out to g^(c₁c₂ − c₁c₂) = 1. A
// verifier folding the two checks with those coefficients acknowledges
// the pair.
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

// TestAttestationCheckIsExact: the successor recomputes both attested
// values under the prime it issued and compares them exactly. An honest
// pair is acknowledged; a forged pair that a coefficient-weighted batch
// check would pass for some known coefficient stream — or for any stream
// at all — draws exactly one BadAttestation, and so does an undecodable
// value. The check adds exactly two hash-ops on every path, the count
// Table I charges; an acknowledged pair adds the Ack's lift on top.
func TestAttestationCheckIsExact(t *testing.T) {
	const id = model.NodeID(5)
	check := func(t *testing.T, c *attestationCheck, wantAck bool) {
		t.Helper()
		want := uint64(2)
		if wantAck {
			want++ // the Ack's lift under K(R-1)
		}
		if c.hashOps != want {
			t.Errorf("the exchange added %d hash-ops, want %d", c.hashOps, want)
		}
		if wantAck {
			if len(c.verdicts) != 0 {
				t.Fatalf("honest attestation refused: %v", c.verdicts)
			}
			return
		}
		if len(c.verdicts) != 1 || c.verdicts[0].Detail != "attestation does not match served content" {
			t.Fatalf("verdicts %v, want one BadAttestation", c.verdicts)
		}
	}

	t.Run("honest pair accepted", func(t *testing.T) {
		c := newAttestationCheck(t, id)
		if !c.accepts(t, c.hasher.Lift(c.exp, c.prime), c.hasher.Lift(c.fwd, c.prime)) {
			t.Fatalf("honest attestation refused: %v", c.verdicts)
		}
		check(t, c, true)
	})
	for name, coeffs := range map[string]io.Reader{
		// A stream anyone can rebuild from the node's public id.
		"known coefficients":  rand.New(rand.NewSource(int64(id))),
		"random coefficients": crand.Reader,
		"seeded coefficients": rand.New(rand.NewSource(1)),
	} {
		t.Run(name+": forgery rejected", func(t *testing.T) {
			c := newAttestationCheck(t, id)
			hExp, hFwd := c.cancellingForgery(t, coeffs)
			if hExp.Cmp(c.hasher.Lift(c.exp, c.prime)) == 0 || hFwd.Cmp(c.hasher.Lift(c.fwd, c.prime)) == 0 {
				t.Fatal("the forged pair is not wrong")
			}
			if c.accepts(t, hExp, hFwd) {
				t.Fatal("a cancelling forgery was acknowledged")
			}
			check(t, c, false)
		})
	}
	t.Run("undecodable value rejected", func(t *testing.T) {
		c := newAttestationCheck(t, id)
		honest, err := c.hasher.Params().EncodeValue(c.hasher.Lift(c.fwd, c.prime))
		if err != nil {
			t.Fatal(err)
		}
		if c.acceptsEncoded(t, []byte{1}, honest) {
			t.Fatal("an undecodable attestation value was acknowledged")
		}
		check(t, c, false)
	})
}
