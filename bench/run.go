package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	pag "repro"
	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/transport"
)

// window is how long a run measures: at least rounds rounds and at least
// d of wall time. The full invocation fixes rounds (so exact metrics
// repeat exactly); a -seconds run fixes d.
type window struct {
	rounds int
	d      time.Duration
}

// runResult is one measured window of one workload.
type runResult struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Rounds   int                `json:"rounds"`
	WallS    float64            `json:"wall_s"`
	SetupS   []float64          `json:"setup_s"`
	RoundMs  []float64          `json:"round_ms"`
	Metrics  map[string]float64 `json:"metrics"`
	// OpsAttempted / OpsFailed count (member, chunk) playouts that came
	// due inside the window and those missed by the deadline.
	OpsAttempted uint64 `json:"ops_attempted"`
	OpsFailed    uint64 `json:"ops_failed"`
	// RoundsFailed counts Run(1) calls that did not complete a round.
	RoundsFailed int      `json:"rounds_failed"`
	Fingerprint  string   `json:"fingerprint"`
	Failures     []string `json:"failures,omitempty"`
	// Convicted lists every node with a verdict against it; WrongConvictions
	// counts those no script told to deviate.
	Convicted        []model.NodeID `json:"convicted,omitempty"`
	WrongConvictions int            `json:"wrong_convictions"`

	before, after counters
}

// counters is a snapshot of every cumulative count the benchmark reads
// from outside the program; metrics are differences of two snapshots.
type counters struct {
	cpu     time.Duration // process user+sys
	gcCPU   float64       // seconds, runtime/metrics
	mem     runtime.MemStats
	traffic transport.Traffic
	io      transport.IOStats
	// Summed over Session.PAGNodeStats (zero on AcTinG).
	hashOps, sigOps, received, duplicates, payloads, refs, accusations uint64
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

func (l *live) counters() counters {
	c := counters{cpu: processCPU(), traffic: l.net.TotalTraffic()}
	if l.tcp != nil {
		c.io = l.tcp.IOStats()
	}
	for _, st := range l.PAGNodeStats() {
		c.hashOps += st.HashOps
		c.sigOps += st.SigOps
		c.received += st.UpdatesReceived
		c.duplicates += st.DuplicateReceptions
		c.payloads += st.PayloadsSent
		c.refs += st.RefsSent
		c.accusations += st.AccusationsSent
	}
	c.gcCPU = gcCPUSeconds()
	runtime.ReadMemStats(&c.mem)
	return c
}

// settle waits for a closed session's one-shot prime refills to finish, so
// they do not run on the next session's clock.
func settle(goroutines int) {
	for i := 0; i < 200 && runtime.NumGoroutine() > goroutines; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	runtime.GC()
}

// setUp builds the session and runs the warm-up rounds, timing both.
func (w workload) setUp(seed uint64, ins *instruments) (*live, float64, error) {
	start := time.Now()
	l, err := w.build(seed, ins)
	if err != nil {
		return nil, 0, err
	}
	l.Run(w.warmup)
	return l, time.Since(start).Seconds(), nil
}

// setupBudget bounds the repeated set-ups of one run: a workload whose
// set-up is cheap repeats it three times, a heavy one stops sooner.
const setupBudget = 16 * time.Second

// measure runs one window. It sets up to `setups` times (the median is
// setup_s) and measures on the last session. With ins it is the traced
// run: instruments attached and spans recorded.
func (w workload) measure(seed uint64, win window, setups int, ins *instruments) (*runResult, error) {
	res := &runResult{Workload: w.name, Seed: seed, Metrics: map[string]float64{}}
	idle := runtime.NumGoroutine()
	var l *live
	for spent := time.Duration(0); ; {
		settle(idle)
		var err error
		var took float64
		if l, took, err = w.setUp(seed, ins); err != nil {
			return nil, err
		}
		res.SetupS = append(res.SetupS, took)
		spent += time.Duration(took * float64(time.Second))
		if len(res.SetupS) >= setups || spent >= setupBudget {
			break
		}
		if err := l.Close(); err != nil {
			return nil, fmt.Errorf("%s: close: %w", w.name, err)
		}
	}
	defer l.Close()

	first := l.Round() + 1
	present := memberSet(l.Members())
	joined := map[model.NodeID]model.Round{}
	l.StartMeasuring()
	if ins != nil {
		ins.onStart()
	}
	res.before = l.counters()
	start := time.Now()
	for res.Rounds < win.rounds || res.Rounds < w.minRounds || time.Since(start) < win.d {
		if ins != nil {
			ins.onRound()
		}
		r := l.Round() + 1
		t := time.Now()
		if ins != nil && ins.rec != nil {
			ins.rec.runRound(r, func() { l.Run(1) })
		} else {
			l.Run(1)
		}
		res.RoundMs = append(res.RoundMs, float64(time.Since(t))/1e6)
		res.Rounds++
		if l.Round() != r {
			res.RoundsFailed++
		}
		if w.churn {
			now := memberSet(l.Members())
			for id := range now {
				if !present[id] {
					joined[id] = r
				}
			}
			present = now
		}
	}
	wall := time.Since(start)
	res.after = l.counters()
	res.WallS = wall.Seconds()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	res.OpsAttempted, res.OpsFailed = l.playouts(first, joined)
	n := float64(res.Rounds)
	m := res.Metrics
	m["rounds_per_s"] = n / wall.Seconds()
	m["round_ms_p50"] = median(res.RoundMs)
	m["cpu_s_per_round"] = (res.after.cpu - res.before.cpu).Seconds() / n
	m["alloc_mb_per_round"] = float64(res.after.mem.TotalAlloc-res.before.mem.TotalAlloc) / 1e6 / n
	m["live_heap_mb"] = float64(ms.HeapAlloc) / 1e6
	m["node_kbps_mean"] = l.BandwidthSample().Mean()
	if res.OpsAttempted > 0 {
		m["continuity"] = 1 - float64(res.OpsFailed)/float64(res.OpsAttempted)
	}
	m["setup_s"] = median(res.SetupS)
	res.Fingerprint = l.fingerprint()
	for id := range l.ConvictedNodes(1) {
		res.Convicted = append(res.Convicted, id)
		if !w.churn || id != model.NodeID(w.nodes) {
			res.WrongConvictions++
		}
	}
	sort.Slice(res.Convicted, func(i, j int) bool { return res.Convicted[i] < res.Convicted[j] })
	res.Failures = w.check(l, res)
	return res, nil
}

func memberSet(ids []model.NodeID) map[model.NodeID]bool {
	set := make(map[model.NodeID]bool, len(ids))
	for _, id := range ids {
		set[id] = true
	}
	return set
}

// playouts counts the (member, chunk) playouts whose deadline fell in
// rounds [first, now] and those that missed it. A chunk released in round
// r is due TTL rounds later; a member that joined mid-window owes only
// the chunks released after it arrived, as Session.MeanContinuity counts.
func (l *live) playouts(first model.Round, joined map[model.NodeID]model.Round) (due, missed uint64) {
	now := l.Round()
	perRound := l.Emitted() / uint64(now)
	ttl := l.Config().TTL
	through := func(r model.Round) uint64 {
		if r <= ttl {
			return 0
		}
		return uint64(r-ttl) * perRound
	}
	lo0, hi := through(first-1), through(now)
	for _, id := range l.Members() {
		lo := lo0
		if id == pag.SourceID {
			continue // the source
		}
		if r, ok := joined[id]; ok {
			lo = max(lo, uint64(r-1)*perRound)
		}
		if hi <= lo {
			continue
		}
		due += hi - lo
		missed += hi - lo - l.Player(id).DeliveredInRange(lo, hi)
	}
	return due, missed
}

// fingerprint hashes the run's full measured outcome — every member's
// bandwidth, bit-exact in id order, and the playback continuity. On
// MemNet it is a pure function of the seed.
func (l *live) fingerprint() string {
	h := sha256.New()
	for _, id := range l.Members() {
		fmt.Fprintf(h, "%d:%x\n", id, math.Float64bits(l.NodeBandwidthKbps(id)))
	}
	fmt.Fprintf(h, "continuity:%x\n", math.Float64bits(l.MeanContinuity()))
	return fmt.Sprintf("%x", h.Sum(nil))
}

// check returns the run's correctness failures: playout quality, rounds
// that did not complete, and who was convicted — nobody on the fault-free
// workloads, exactly the scripted free-rider on the churn workload.
func (w workload) check(l *live, res *runResult) []string {
	var fails []string
	if res.RoundsFailed > 0 {
		fails = append(fails, fmt.Sprintf("%d rounds did not complete", res.RoundsFailed))
	}
	if w.minContinuity == 0 {
		return fails // smoke sizing: too short for the outcome checks
	}
	if c := res.Metrics["continuity"]; c < w.minContinuity {
		fails = append(fails, fmt.Sprintf("continuity %.4f below %.2f", c, w.minContinuity))
	}
	if res.WrongConvictions > 0 {
		fails = append(fails, fmt.Sprintf("convicted %v: %d of them no script told to deviate", res.Convicted, res.WrongConvictions))
	}
	if !w.churn {
		return fails
	}
	// The free-rider is convicted and evicted during the warm-up, bounces
	// off its quarantine twice, and is re-admitted at round 26. Whether
	// the relapse earns a second eviction depends on the seed — a graceful
	// leave may claim the node first — so one or two evictions pass, as
	// long as every one of them names the free-rider.
	attacker := model.NodeID(w.nodes)
	evictions := l.Evictions()
	if len(res.Convicted) == 0 || len(evictions) < 1 || len(evictions) > 2 {
		fails = append(fails, fmt.Sprintf("convicted %v with %d evictions, want the free-rider %v evicted once or twice",
			res.Convicted, len(evictions), attacker))
	}
	for _, ev := range evictions {
		if ev.Node != attacker {
			fails = append(fails, fmt.Sprintf("evicted %v, which no script told to deviate", ev.Node))
		}
	}
	if n := len(l.RejoinRejections()); n != 2 {
		fails = append(fails, fmt.Sprintf("%d rejoin rejections, want 2", n))
	}
	return fails
}

func median(xs []float64) float64 { return stats.NewSample(xs).Median() }
