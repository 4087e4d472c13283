package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"time"

	pag "repro"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/wire"
)

// lineCounter is the JSONL tracer's sink: it counts events and discards
// them, so the traced run times event serialisation, not a disk.
type lineCounter struct{ lines int }

func (c *lineCounter) Write(p []byte) (int, error) {
	c.lines += bytes.Count(p, []byte{'\n'})
	return len(p), nil
}

// registryView reads one obs snapshot by metric name (labels joined in).
type registryView map[string]obs.Point

func view(reg *obs.Registry) registryView {
	v := registryView{}
	for _, p := range reg.Snapshot().Points {
		name := p.Name
		for _, l := range p.Labels {
			name += "{" + l.Key + "=" + l.Value + "}"
		}
		v[name] = p
	}
	return v
}

// traced runs the workload once with everything attached — the obs
// registry, a JSONL tracer, the boundary wrapper on a serial engine, and
// a CPU profile of the measured window — and returns the per-layer
// ledger. baseP50 is the untraced round_ms_p50 the tracing overhead is
// taken against; spans, if set, receives the spans once the run is over.
func (w workload) traced(seed uint64, win window, baseP50 float64, unitBudget time.Duration, spans io.Writer) (*runResult, map[string]float64, error) {
	ins := &instruments{reg: obs.NewRegistry(), events: &lineCounter{}}
	if w.workers == 0 {
		ins.rec = newRecorder()
	}
	var (
		before      registryView
		eventsAt    int
		allocBefore map[string]float64
		profile     bytes.Buffer
		peakHeap    uint64
		profErr     error
	)
	ins.onStart = func() {
		before, eventsAt, allocBefore = view(ins.reg), ins.events.lines, allocByLayer()
		profErr = pprof.StartCPUProfile(&profile)
	}
	ins.onRound = func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		peakHeap = max(peakHeap, ms.HeapInuse)
	}
	res, err := w.measure(seed, win, 1, ins)
	pprof.StopCPUProfile()
	if err == nil {
		err = profErr
	}
	if err != nil {
		return nil, nil, err
	}
	after, events := view(ins.reg), ins.events.lines-eventsAt
	allocAfter := allocByLayer()
	prof, err := decodeCPUProfile(profile.Bytes())
	if err != nil {
		return nil, nil, err
	}
	if spans != nil && ins.rec != nil {
		if err := ins.rec.writeJSONL(spans, w.name); err != nil {
			return nil, nil, err
		}
	}

	m, err := w.unitCosts(seed, unitBudget)
	if err != nil {
		return nil, nil, err
	}
	n := float64(res.Rounds)
	delta := func(name string) float64 { return after[name].Value - before[name].Value }
	histMs := func(name string) float64 { return (after[name].Sum - before[name].Sum) * 1e3 / n }
	histOps := func(name string) float64 { return float64(after[name].Count-before[name].Count) / n }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	b, a := res.before, res.after

	// [W] the boundary wrapper's self times (serial engines only).
	if ins.rec != nil {
		pagKinds := w.protocol == pag.ProtocolPAG
		l := ins.rec.account(pagKinds)
		perRound := func(ns int64) float64 { return float64(ns) / 1e6 / n }
		m["engine.step_ms_per_round"] = perRound(l.step)
		m["transport.begin_round_ms_per_round"] = perRound(l.beginRound)
		m["transport.deliver_self_ms_per_round"] = perRound(l.deliverSelf)
		m["transport.send_ms_per_round"] = perRound(l.send)
		m["transport.send_us_per_msg"] = ratio(float64(l.send)/1e3, float64(l.sends))
		layer := "core"
		if !pagKinds {
			layer = "acting"
		}
		m[layer+".handle_ms_per_round"] = perRound(l.handleSelf)
		m[layer+".handle_us_per_msg"] = ratio(float64(l.handleSelf)/1e3, float64(l.handles))
		if pagKinds {
			for i, class := range kindClasses {
				m["core.handle_ms_per_round."+class] = perRound(l.handleByClass[i])
			}
		}
	}
	roundMs := stats.NewSample(res.RoundMs)
	m["engine.round_ms_p90"] = roundMs.Percentile(90)
	m["engine.round_ms_max"] = roundMs.Max()

	// [O] the obs registry, attached through SessionConfig.Obs.
	m["engine.deliveries_per_round"] = delta("pag_engine_deliveries_total") / n
	m["engine.shard_ms_per_round"] = histMs("pag_engine_shard_seconds")
	m["engine.stall_ms_per_round"] = histMs("pag_engine_barrier_stall_seconds")
	m["engine.stall_share"] = 100 * ratio(m["engine.stall_ms_per_round"],
		m["engine.stall_ms_per_round"]+m["engine.shard_ms_per_round"])
	for kind := uint8(1); kind <= wire.KindObligationHandover; kind++ {
		m["core.msgs_per_round."+kindClasses[kindClass(kind)]] += delta("pag_core_messages_total{kind="+wire.KindName(kind)+"}") / n
	}
	m["hhash.lift_ops_per_round"] = histOps("pag_hhash_lift_seconds")
	m["hhash.lift_ms_per_round"] = histMs("pag_hhash_lift_seconds")
	m["hhash.verify_ops_per_round"] = histOps("pag_hhash_verify_seconds")
	m["hhash.verify_ms_per_round"] = histMs("pag_hhash_verify_seconds")
	m["transport.fault_admitted_per_round"] = delta("pag_net_admitted_total") / n
	m["transport.fault_dropped"] = delta("pag_net_dropped_total")
	m["transport.fault_deferred"] = delta("pag_net_deferred_total")
	m["transport.fault_expired"] = delta("pag_net_expired_total")
	m["membership.epochs"] = delta("pag_membership_epochs_total")
	m["membership.joins"] = delta("pag_membership_joins_total")
	m["membership.leaves"] = delta("pag_membership_leaves_total")
	m["membership.evictions"] = delta("pag_membership_evictions_total")
	m["membership.quarantine_rejections"] = delta("pag_membership_quarantine_rejections_total")
	m["judicial.facts"] = delta("pag_judicial_facts_total")
	dupes := delta("pag_judicial_duplicates_total")
	m["judicial.duplicate_share"] = 100 * ratio(dupes, dupes+m["judicial.facts"])
	m["judicial.convictions"] = float64(len(res.Convicted))
	m["judicial.wrong_convictions"] = float64(res.WrongConvictions)

	// [S] counters the session and the runtime already keep.
	m["core.duplicate_reception_share"] = 100 * ratio(float64(a.duplicates-b.duplicates),
		float64(a.duplicates-b.duplicates+a.received-b.received))
	m["core.ref_share"] = 100 * ratio(float64(a.refs-b.refs), float64(a.refs-b.refs+a.payloads-b.payloads))
	m["core.accusations_per_round"] = float64(a.accusations-b.accusations) / n
	m["hhash.hash_ops_per_round"] = float64(a.hashOps-b.hashOps) / n
	m["pki.sig_ops_per_round"] = float64(a.sigOps-b.sigOps) / n
	msgs, sent := float64(a.traffic.MsgsOut-b.traffic.MsgsOut), float64(a.traffic.BytesOut-b.traffic.BytesOut)
	m["transport.msgs_per_round"] = msgs / n
	m["transport.kbytes_per_round"] = sent / 1e3 / n
	m["wire.bytes_per_msg"] = ratio(sent, msgs)
	writes := float64(a.io.Writes - b.io.Writes)
	m["transport.frames_per_write"] = ratio(float64(a.io.FramesOut-b.io.FramesOut), writes)
	m["transport.bytes_per_write"] = ratio(float64(a.io.BytesOut-b.io.BytesOut), writes)
	m["transport.writes_per_round"] = writes / n
	m["transport.reads_per_round"] = float64(a.io.Reads-b.io.Reads) / n
	m["transport.jumbo_share"] = 100 * ratio(float64(a.io.Jumbo-b.io.Jumbo), writes)
	m["streaming.playouts_due"] = float64(res.OpsAttempted)
	m["streaming.playouts_missed"] = float64(res.OpsFailed)
	cpu := (a.cpu - b.cpu).Seconds()
	m["runtime.gc_cycles_per_round"] = float64(a.mem.NumGC-b.mem.NumGC) / n
	m["runtime.gc_pause_ms_per_round"] = float64(a.mem.PauseTotalNs-b.mem.PauseTotalNs) / 1e6 / n
	m["runtime.gc_cpu_share"] = 100 * ratio(a.gcCPU-b.gcCPU, cpu)
	m["runtime.peak_heap_mb"] = float64(peakHeap) / 1e6
	// CPU the process burned beyond the driver goroutine's wall time and
	// the collector: the prime pools' refills on serial MemNet PAG runs,
	// socket readers on TCP, the other shards on the parallel engine.
	driver := 0.0
	for _, ms := range res.RoundMs {
		driver += ms / 1e3
	}
	m["runtime.offthread_cpu_ms_per_round"] = max(0, cpu-driver-(a.gcCPU-b.gcCPU)) * 1e3 / n

	// [P] the profiles.
	cpuNs, primeNs := prof.cpuByLayer()
	cpuShares := shares(cpuNs)
	m["hhash.prime_cpu_share"] = cpuShares["hhash"] * ratio(primeNs, cpuNs["hhash"])
	m["other.cpu_share"] = 100
	for _, layer := range cpuShareLayers {
		m[layer+".cpu_share"] = cpuShares[layer]
		m["other.cpu_share"] -= cpuShares[layer]
	}
	for layer, v := range allocBefore {
		allocAfter[layer] -= v
	}
	allocShares := shares(allocAfter)
	m["other.alloc_share"] = 100
	for _, layer := range allocShareLayers {
		m[layer+".alloc_share"] = allocShares[layer]
		m["other.alloc_share"] -= allocShares[layer]
	}

	// obs: what all of the above cost the round.
	if baseP50 > 0 {
		m["obs.trace_overhead_pct"] = 100 * (res.Metrics["round_ms_p50"] - baseP50) / baseP50
	}
	m["obs.trace_events_per_round"] = float64(events) / n

	for _, def := range perLayer {
		if _, ok := m[def.Name]; !ok {
			m[def.Name] = 0
		}
	}
	if len(m) != len(perLayer) {
		return nil, nil, fmt.Errorf("%s: traced run produced %d metrics, the ledger lists %d", w.name, len(m), len(perLayer))
	}
	return res, m, nil
}
