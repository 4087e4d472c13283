package main

import (
	"fmt"
	"math/big"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/hhash"
	"repro/internal/membership"
	"repro/internal/model"
	"repro/internal/pki"
	"repro/internal/transport"
	"repro/internal/update"
	"repro/internal/wire"
)

// Unit costs: each layer's public functions called directly at the
// workload's sizes with seeded inputs. They price one operation without a
// session around it, so a traced run's "ops per round x unit cost" can be
// checked against the time the spans and histograms saw.

// timeOp returns the median per-call time in microseconds over five
// batches sized to fill the budget, and the bytes allocated per call.
func timeOp(budget time.Duration, fn func()) (us, allocB float64) {
	fn()
	calls := 1
	for start := time.Now(); time.Since(start) < budget/10; calls *= 2 {
		for i := 0; i < calls; i++ {
			fn()
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var per []float64
	for b := 0; b < 5; b++ {
		start := time.Now()
		for i := 0; i < calls; i++ {
			fn()
		}
		per = append(per, float64(time.Since(start))/1e3/float64(calls))
	}
	runtime.ReadMemStats(&ms1)
	return median(per), float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(5*calls)
}

// unitCosts measures every [U] metric for one workload. budget is the
// time spent per metric.
func (w workload) unitCosts(seed uint64, budget time.Duration) (map[string]float64, error) {
	m := map[string]float64{}
	rnd := rand.New(rand.NewSource(int64(seed)))
	fanout := model.FanoutFor(w.nodes)

	// hhash, at the workload's modulus and prime size.
	params, err := hhash.GenerateParams(rnd, w.modulusBits)
	if err != nil {
		return nil, err
	}
	h := hhash.NewHasher(params, nil)
	primes := make([]hhash.Key, fanout)
	product := hhash.OneKey()
	for i := range primes {
		if primes[i], err = hhash.GeneratePrimeKey(rnd, w.modulusBits); err != nil {
			return nil, err
		}
		product = product.Mul(primes[i])
	}
	payload := make([]byte, model.UpdateBytes)
	rnd.Read(payload)
	embedded := h.Embed(payload)
	m["hhash.lift_us"], m["hhash.lift_alloc_b"] = timeOp(budget, func() { h.Lift(embedded, primes[0]) })
	m["hhash.prime_us"], m["hhash.prime_alloc_b"] = timeOp(budget, func() {
		_, err = hhash.GeneratePrimeKey(rnd, w.modulusBits)
	})
	if err != nil {
		return nil, err
	}
	// The monitor equation over `fanout` predecessors (§IV-B).
	attestations := make([]*big.Int, fanout)
	remainders := make([]hhash.Key, fanout)
	ack := h.Identity()
	for j := range primes {
		attestations[j] = h.Lift(embedded, primes[j])
		remainders[j] = hhash.OneKey()
		for k := range primes {
			if k != j {
				remainders[j] = remainders[j].Mul(primes[k])
			}
		}
		ack = h.Combine(ack, h.Lift(attestations[j], remainders[j]))
	}
	var verified bool
	m["hhash.verify_us"], _ = timeOp(budget, func() {
		verified, err = h.VerifyForwarding(attestations, remainders, ack)
	})
	if err != nil || !verified {
		return nil, fmt.Errorf("unit costs: forwarding equation rejected (%v)", err)
	}
	const batch = 16
	checks := make([]hhash.Check, batch)
	for i := range checks {
		checks[i] = hhash.Check{Base: attestations[i%fanout], Key: remainders[i%fanout],
			Want: h.Lift(attestations[i%fanout], remainders[i%fanout])}
	}
	us, _ := timeOp(budget, func() { verified, _ = h.VerifyBatch(rnd, checks) })
	if !verified {
		return nil, fmt.Errorf("unit costs: batch verification rejected correct checks")
	}
	m["hhash.verify_batch_us_per_check"] = us / batch

	// pki: FastSuite on a 1 KiB message.
	suite := pki.NewFastSuite()
	alice, err := suite.NewIdentity(1)
	if err != nil {
		return nil, err
	}
	bob, err := suite.NewIdentity(2)
	if err != nil {
		return nil, err
	}
	msg := make([]byte, 1024)
	rnd.Read(msg)
	var sig, ct []byte
	m["pki.sign_us"], m["pki.sign_alloc_b"] = timeOp(budget, func() { sig, err = alice.Sign(msg) })
	if err != nil {
		return nil, err
	}
	m["pki.verify_us"], _ = timeOp(budget, func() { err = suite.Verify(1, msg, sig) })
	if err != nil {
		return nil, err
	}
	m["pki.encrypt_us"], _ = timeOp(budget, func() { ct, err = suite.Encrypt(2, msg) })
	if err != nil {
		return nil, err
	}
	m["pki.decrypt_us"], _ = timeOp(budget, func() { _, err = bob.Decrypt(ct) })
	if err != nil {
		return nil, err
	}

	// wire: a Serve carrying one round's updates.
	perRound := max(1, w.streamKbps*1000/8/model.UpdateBytes)
	serve := &wire.Serve{Round: 13, From: 1, To: 2, KPrev: product.Bytes(), Sig: sig}
	for i := 0; i < perRound; i++ {
		serve.Full = append(serve.Full, wire.ServedUpdate{Count: 1, Update: update.Update{
			ID: model.UpdateID{Seq: uint64(i)}, Deadline: 20, Payload: payload, SrcSig: sig}})
	}
	var encoded []byte
	m["wire.serve_marshal_us"], _ = timeOp(budget, func() { encoded = serve.Marshal() })
	m["wire.serve_unmarshal_us"], m["wire.serve_unmarshal_alloc_b"] = timeOp(budget, func() {
		_, err = wire.UnmarshalServe(encoded)
	})
	if err != nil {
		return nil, err
	}

	// transport: 16 stepped endpoints, no-op handlers, each sends to its
	// three successors, then the phase quiesces.
	for _, size := range []struct {
		name  string
		bytes int
	}{{"64b", 64}, {"8k", 8 << 10}} {
		mem := transport.NewMemNet()
		if m["transport.mem_us_per_msg."+size.name], err = netCost(mem, size.bytes, budget); err != nil {
			return nil, err
		}
		tcp := transport.NewTCPNet(nil)
		tcp.SetDynamic("127.0.0.1")
		tcp.SetStepped(5 * time.Second)
		if m["transport.tcp_us_per_msg."+size.name], err = netCost(tcp, size.bytes, budget); err != nil {
			return nil, err
		}
	}

	// membership: the successor/predecessor view of a round nobody has
	// asked about yet, at the workload's population.
	ids := make([]model.NodeID, w.nodes)
	for i := range ids {
		ids[i] = model.NodeID(i + 1)
	}
	dir, err := membership.New(ids, membership.Config{Seed: seed, Fanout: fanout, Monitors: fanout})
	if err != nil {
		return nil, err
	}
	round := model.Round(0)
	m["membership.view_us"], _ = timeOp(budget, func() { round++; dir.View(round) })
	return m, nil
}

// netCost times one phase on a fresh network — 16 endpoints each sending
// one payload to three successors, then DeliverAll — per message.
func netCost(net transport.FaultyNetwork, payloadBytes int, budget time.Duration) (float64, error) {
	defer net.Close()
	const endpoints, successors = 16, 3
	eps := make([]transport.Endpoint, endpoints)
	for i := range eps {
		ep, err := net.Register(model.NodeID(i+1), func(transport.Message) {})
		if err != nil {
			return 0, err
		}
		eps[i] = ep
	}
	payload := make([]byte, payloadBytes)
	var err error
	us, _ := timeOp(budget, func() {
		for i, ep := range eps {
			for s := 1; s <= successors; s++ {
				if e := ep.Send(model.NodeID((i+s)%endpoints+1), 1, payload); e != nil {
					err = e
				}
			}
		}
		if got := net.DeliverAll(); got != endpoints*successors {
			err = fmt.Errorf("unit costs: %s delivered %d of %d", net.Name(), got, endpoints*successors)
		}
	})
	return us / (endpoints * successors), err
}
