package main

// metricDef names one metric. BENCHMARK.json lists the same names, units
// and directions (bench_test.go holds the two together); bound is the
// share of the parent's median an end-to-end metric may worsen by.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the system sees, the same eight on every
// workload. README.md records the measured spread behind each bound.
var endToEnd = []metricDef{
	{"rounds_per_s", "1/s", higher, 0.25},
	{"round_ms_p50", "ms", lower, 0.25},
	{"cpu_s_per_round", "s", lower, 0.25},
	{"alloc_mb_per_round", "MB", lower, 0.10},
	{"live_heap_mb", "MB", lower, 0.15},
	{"node_kbps_mean", "kbps", lower, 0.12},
	{"continuity", "ratio", higher, 0.01},
	{"setup_s", "s", lower, 0.25},
}

// perLayer is the ledger: one block per package of this repository. A
// metric that does not apply to a workload (spans on the parallel engine,
// socket counters on MemNet, PAG counters on AcTinG) reads 0 there.
var perLayer = []metricDef{
	// engine: the round loop of internal/sim and internal/engine.
	{Name: "engine.step_ms_per_round", Unit: "ms", Better: lower},
	{Name: "engine.round_ms_p90", Unit: "ms", Better: lower},
	{Name: "engine.round_ms_max", Unit: "ms", Better: lower},
	{Name: "engine.deliveries_per_round", Unit: "count", Better: lower},
	{Name: "engine.shard_ms_per_round", Unit: "ms", Better: lower},
	{Name: "engine.stall_ms_per_round", Unit: "ms", Better: lower},
	{Name: "engine.stall_share", Unit: "%", Better: lower},
	{Name: "engine.cpu_share", Unit: "%", Better: lower},

	// core: PAG's message handlers, self time (nested sends excluded),
	// split by wire kind: exchange 1-5, monitoring 6-10, judicial 11-17.
	{Name: "core.handle_ms_per_round", Unit: "ms", Better: lower},
	{Name: "core.handle_us_per_msg", Unit: "us", Better: lower},
	{Name: "core.handle_ms_per_round.exchange", Unit: "ms", Better: lower},
	{Name: "core.handle_ms_per_round.monitoring", Unit: "ms", Better: lower},
	{Name: "core.handle_ms_per_round.judicial", Unit: "ms", Better: lower},
	{Name: "core.msgs_per_round.exchange", Unit: "count", Better: lower},
	{Name: "core.msgs_per_round.monitoring", Unit: "count", Better: lower},
	{Name: "core.msgs_per_round.judicial", Unit: "count", Better: lower},
	{Name: "core.duplicate_reception_share", Unit: "%", Better: lower},
	{Name: "core.ref_share", Unit: "%", Better: higher},
	{Name: "core.accusations_per_round", Unit: "count", Better: lower},
	{Name: "core.cpu_share", Unit: "%", Better: lower},
	{Name: "core.alloc_share", Unit: "%", Better: lower},

	// acting: the baseline's handlers, on the AcTinG workload only.
	{Name: "acting.handle_ms_per_round", Unit: "ms", Better: lower},
	{Name: "acting.handle_us_per_msg", Unit: "us", Better: lower},
	{Name: "acting.cpu_share", Unit: "%", Better: lower},
	{Name: "acting.alloc_share", Unit: "%", Better: lower},

	// hhash: homomorphic hashing and prime search.
	{Name: "hhash.lift_ops_per_round", Unit: "count", Better: lower},
	{Name: "hhash.lift_ms_per_round", Unit: "ms", Better: lower},
	{Name: "hhash.verify_ops_per_round", Unit: "count", Better: lower},
	{Name: "hhash.verify_ms_per_round", Unit: "ms", Better: lower},
	{Name: "hhash.hash_ops_per_round", Unit: "count", Better: lower},
	{Name: "hhash.lift_us", Unit: "us", Better: lower},
	{Name: "hhash.verify_us", Unit: "us", Better: lower},
	{Name: "hhash.verify_batch_us_per_check", Unit: "us", Better: lower},
	{Name: "hhash.prime_us", Unit: "us", Better: lower},
	{Name: "hhash.lift_alloc_b", Unit: "B", Better: lower},
	{Name: "hhash.prime_alloc_b", Unit: "B", Better: lower},
	{Name: "hhash.cpu_share", Unit: "%", Better: lower},
	{Name: "hhash.prime_cpu_share", Unit: "%", Better: lower},
	{Name: "hhash.alloc_share", Unit: "%", Better: lower},

	// pki: FastSuite on a 1 KiB message.
	{Name: "pki.sig_ops_per_round", Unit: "count", Better: lower},
	{Name: "pki.sign_us", Unit: "us", Better: lower},
	{Name: "pki.verify_us", Unit: "us", Better: lower},
	{Name: "pki.encrypt_us", Unit: "us", Better: lower},
	{Name: "pki.decrypt_us", Unit: "us", Better: lower},
	{Name: "pki.sign_alloc_b", Unit: "B", Better: lower},
	{Name: "pki.cpu_share", Unit: "%", Better: lower},
	{Name: "pki.alloc_share", Unit: "%", Better: lower},

	// wire: a Serve carrying one round's updates.
	{Name: "wire.serve_marshal_us", Unit: "us", Better: lower},
	{Name: "wire.serve_unmarshal_us", Unit: "us", Better: lower},
	{Name: "wire.serve_unmarshal_alloc_b", Unit: "B", Better: lower},
	{Name: "wire.bytes_per_msg", Unit: "B", Better: lower},
	{Name: "wire.cpu_share", Unit: "%", Better: lower},
	{Name: "wire.alloc_share", Unit: "%", Better: lower},

	// transport: MemNet or TCPNet, and the fault plane both consult.
	{Name: "transport.send_ms_per_round", Unit: "ms", Better: lower},
	{Name: "transport.send_us_per_msg", Unit: "us", Better: lower},
	{Name: "transport.deliver_self_ms_per_round", Unit: "ms", Better: lower},
	{Name: "transport.begin_round_ms_per_round", Unit: "ms", Better: lower},
	{Name: "transport.msgs_per_round", Unit: "count", Better: lower},
	{Name: "transport.kbytes_per_round", Unit: "kB", Better: lower},
	{Name: "transport.frames_per_write", Unit: "count", Better: higher},
	{Name: "transport.bytes_per_write", Unit: "B", Better: higher},
	{Name: "transport.writes_per_round", Unit: "count", Better: lower},
	{Name: "transport.reads_per_round", Unit: "count", Better: lower},
	{Name: "transport.jumbo_share", Unit: "%", Better: higher},
	{Name: "transport.mem_us_per_msg.64b", Unit: "us", Better: lower},
	{Name: "transport.mem_us_per_msg.8k", Unit: "us", Better: lower},
	{Name: "transport.tcp_us_per_msg.64b", Unit: "us", Better: lower},
	{Name: "transport.tcp_us_per_msg.8k", Unit: "us", Better: lower},
	{Name: "transport.fault_admitted_per_round", Unit: "count", Better: lower},
	{Name: "transport.fault_dropped", Unit: "count", Better: lower},
	{Name: "transport.fault_deferred", Unit: "count", Better: lower},
	{Name: "transport.fault_expired", Unit: "count", Better: lower},
	{Name: "transport.cpu_share", Unit: "%", Better: lower},
	{Name: "transport.alloc_share", Unit: "%", Better: lower},

	// membership and judicial: counts that repeat exactly for a seed;
	// they move only on the churn workload, and a change in them is a
	// change of behaviour, not of speed.
	{Name: "membership.epochs", Unit: "count", Better: lower},
	{Name: "membership.joins", Unit: "count", Better: lower},
	{Name: "membership.leaves", Unit: "count", Better: lower},
	{Name: "membership.evictions", Unit: "count", Better: lower},
	{Name: "membership.quarantine_rejections", Unit: "count", Better: lower},
	{Name: "membership.view_us", Unit: "us", Better: lower},
	{Name: "membership.cpu_share", Unit: "%", Better: lower},
	{Name: "judicial.facts", Unit: "count", Better: lower},
	{Name: "judicial.duplicate_share", Unit: "%", Better: lower},
	{Name: "judicial.convictions", Unit: "count", Better: lower},
	{Name: "judicial.wrong_convictions", Unit: "count", Better: lower},
	{Name: "judicial.cpu_share", Unit: "%", Better: lower},

	// update and streaming: content store and playout.
	{Name: "update.cpu_share", Unit: "%", Better: lower},
	{Name: "update.alloc_share", Unit: "%", Better: lower},
	{Name: "streaming.cpu_share", Unit: "%", Better: lower},
	{Name: "streaming.playouts_due", Unit: "count", Better: higher},
	{Name: "streaming.playouts_missed", Unit: "count", Better: lower},

	// runtime: the Go runtime under the session.
	{Name: "runtime.gc_cycles_per_round", Unit: "count", Better: lower},
	{Name: "runtime.gc_pause_ms_per_round", Unit: "ms", Better: lower},
	{Name: "runtime.gc_cpu_share", Unit: "%", Better: lower},
	{Name: "runtime.peak_heap_mb", Unit: "MB", Better: lower},
	{Name: "runtime.offthread_cpu_ms_per_round", Unit: "ms", Better: lower},

	// obs: what the registry, the JSONL tracer and the wrapper cost.
	{Name: "obs.trace_overhead_pct", Unit: "%", Better: lower},
	{Name: "obs.trace_events_per_round", Unit: "count", Better: lower},
	{Name: "obs.cpu_share", Unit: "%", Better: lower},

	// other: profile samples outside every layer above (the Go runtime,
	// the session glue of package repro, the benchmark itself), so the
	// shares sum to 100.
	{Name: "other.cpu_share", Unit: "%", Better: lower},
	{Name: "other.alloc_share", Unit: "%", Better: lower},
}

// cpuShareLayers and allocShareLayers are the layers with a *.cpu_share
// and *.alloc_share metric; any other layer a profile names folds into
// "other".
var (
	cpuShareLayers = []string{"engine", "core", "acting", "hhash", "pki", "wire", "transport",
		"membership", "judicial", "update", "streaming", "obs"}
	allocShareLayers = []string{"core", "acting", "hhash", "pki", "wire", "transport", "update"}
)
