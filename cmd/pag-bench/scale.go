package main

// The -scale mode: the Fig 9 measured-scaling artifact. Sizes up to
// scaleFullMax run full-fidelity sessions — every node executes the
// complete §V-A/§V-B protocol — and record measured rounds/s, live
// bytes/node and the per-node bandwidth against the analytic prediction
// for the same N. Beyond that the sampled-cohort mode takes over: a
// deterministic rendezvous cohort runs the full protocol at the global
// fanout while the rest of the membership is the internal/lite traffic
// model, which is how one box reaches N = 131072 with exact
// accountability checks still running on real nodes. Cohort runs are
// recorded with a worker-count byte-identity cross-check, the same
// discipline the engine bench applies to serial-vs-parallel runs.

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	pag "repro"
	"repro/internal/analytic"
)

const (
	// scaleFullMax is the largest size run full-fidelity; larger sizes
	// use the sampled cohort.
	scaleFullMax = 16384
	// scaleCohortNodes is the cohort size for sampled runs: comfortably
	// above fanout+2 at every modelled N, small enough that a cohort
	// round costs like a small session.
	scaleCohortNodes = 64
	// scaleWarmup/scaleFullRounds/scaleCohortRounds size the runs. The
	// warmup must clear the playout delay (model.PlayoutDelayRounds = 10)
	// before measuring: until then exchanges under-carry and continuity
	// is undefined. Full sessions at N=16384 pay minutes per round, so
	// the measured window is short; cohort rounds are cheap, so the
	// window is wider.
	scaleWarmup       = 12
	scaleFullRounds   = 3
	scaleCohortRounds = 6
	// shortBudgetBytes is the -short CI gate on full-fidelity live
	// bytes/node at N=1296: ~2x headroom over the flyweight steady state
	// (~53 KB measured), well under the pre-flyweight representation
	// (~232 KB at N=4096) — a regression to eager per-node state trips it.
	shortBudgetBytes = 100_000
)

// scaleRun is one measured point of the Fig 9 artifact.
type scaleRun struct {
	GlobalNodes int    `json:"global_nodes"`
	Mode        string `json:"mode"` // "full" or "cohort"
	CohortNodes int    `json:"cohort_nodes,omitempty"`
	Rounds      int    `json:"rounds"`
	// BuildSeconds is session assembly (keys, directory, shared plane);
	// RoundsPerSec is the measured steady-state stepping rate for the
	// whole modelled population.
	BuildSeconds float64 `json:"build_seconds"`
	RoundsPerSec float64 `json:"rounds_per_sec"`
	// BytesPerNode is the post-GC live heap over the modelled N;
	// the peaks are the un-GC'd high-water proxies (runtime.MemStats).
	BytesPerNode       float64 `json:"bytes_per_node"`
	PeakHeapAllocBytes uint64  `json:"peak_heap_alloc_bytes"`
	PeakHeapInuseBytes uint64  `json:"peak_heap_inuse_bytes"`
	// MeasuredKbps is the mean per-node bandwidth of the full-fidelity
	// members (source excluded); AnalyticKbps is the closed-form
	// prediction for the same N — the Fig 9 pairing.
	MeasuredKbps float64 `json:"measured_kbps"`
	AnalyticKbps float64 `json:"analytic_kbps"`
	Continuity   float64 `json:"continuity"`
	// CohortIdentical (cohort mode) records the worker-count
	// byte-identity cross-check on the cohort's measured report.
	CohortIdentical *bool `json:"cohort_identical,omitempty"`
}

// scaleReport is the BENCH_scale.json schema.
type scaleReport struct {
	Benchmark   string `json:"benchmark"`
	NumCPU      int    `json:"num_cpu"`
	GoMaxProcs  int    `json:"gomaxprocs"`
	Workers     int    `json:"workers"`
	StreamKbps  int    `json:"stream_kbps"`
	ModulusBits int    `json:"modulus_bits"`
	Seed        uint64 `json:"seed"`
	GeneratedAt string `json:"generated_at"`
	// The flyweight ablation at N=4096: live bytes/node with the compact
	// representation vs the pre-flyweight one, same session otherwise.
	FlyweightBytesPerNode float64 `json:"flyweight_bytes_per_node_n4096"`
	AblatedBytesPerNode   float64 `json:"ablated_bytes_per_node_n4096"`
	FlyweightReduction    float64 `json:"flyweight_reduction_n4096"`

	Results []scaleRun `json:"results"`
}

// scaleAnalytic evaluates the closed-form per-node prediction at the
// session defaults (fanout, monitors, TTL) for global size n, with the
// hash and prime widths of the measured run.
func scaleAnalytic(n, stream, modBits int) float64 {
	return analytic.PAGPerNodeKbps(analytic.Params{
		PayloadKbps: stream,
		N:           n,
		Wire:        analytic.WireFor(modBits),
	})
}

// scaleFull measures one full-fidelity size (optionally with the
// flyweight ablated, for the reduction headline).
func scaleFull(n, stream, modBits int, seed uint64, rounds int, disableFly bool) (scaleRun, error) {
	runtime.GC()
	buildStart := time.Now()
	s, err := pag.NewSession(pag.SessionConfig{
		Nodes: n, StreamKbps: stream, ModulusBits: modBits, Seed: seed,
		DisableFlyweight: disableFly,
	})
	if err != nil {
		return scaleRun{}, err
	}
	build := time.Since(buildStart)
	s.Run(scaleWarmup)
	s.StartMeasuring()
	start := time.Now()
	s.Run(rounds)
	elapsed := time.Since(start)
	mem := sampleMem()

	var sum float64
	members := 0
	for _, id := range s.Members() {
		if id == pag.SourceID {
			continue
		}
		sum += s.NodeBandwidthKbps(id)
		members++
	}
	res := scaleRun{
		GlobalNodes:        n,
		Mode:               "full",
		Rounds:             rounds,
		BuildSeconds:       build.Seconds(),
		RoundsPerSec:       float64(rounds) / elapsed.Seconds(),
		BytesPerNode:       float64(mem.liveBytes) / float64(n),
		PeakHeapAllocBytes: mem.peakAlloc,
		PeakHeapInuseBytes: mem.peakInuse,
		MeasuredKbps:       sum / float64(members),
		AnalyticKbps:       scaleAnalytic(n, stream, modBits),
		Continuity:         s.MeanContinuity(),
	}
	runtime.KeepAlive(s)
	return res, nil
}

// cohortFingerprint hashes the cohort's full measured outcome: every
// cohort member's bandwidth (bit-exact, in cohort order) plus playback
// continuity — the cross-worker identity value.
func cohortFingerprint(ss *pag.ScaleSession) string {
	h := sha256.New()
	for i, id := range ss.Cohort {
		fmt.Fprintf(h, "%d:%x\n", id, math.Float64bits(ss.CohortBandwidthKbps()[i]))
	}
	fmt.Fprintf(h, "continuity:%x\n", math.Float64bits(ss.MeanContinuity()))
	return fmt.Sprintf("%x", h.Sum(nil))
}

// scaleCohort measures one sampled-cohort size at the given worker count.
func scaleCohort(n, stream, modBits, workers int, seed uint64, rounds int) (scaleRun, string, error) {
	runtime.GC()
	buildStart := time.Now()
	ss, err := pag.NewScaleSession(pag.ScaleConfig{
		GlobalNodes: n, CohortNodes: scaleCohortNodes,
		StreamKbps: stream, ModulusBits: modBits, Seed: seed, Workers: workers,
	})
	if err != nil {
		return scaleRun{}, "", err
	}
	build := time.Since(buildStart)
	ss.Run(scaleWarmup)
	ss.StartMeasuring()
	start := time.Now()
	ss.Run(rounds)
	elapsed := time.Since(start)
	mem := sampleMem()

	var sum float64
	members := 0
	for _, id := range ss.Cohort {
		if id == pag.SourceID {
			continue
		}
		sum += ss.NodeBandwidthKbps(id)
		members++
	}
	res := scaleRun{
		GlobalNodes:        n,
		Mode:               "cohort",
		CohortNodes:        scaleCohortNodes,
		Rounds:             rounds,
		BuildSeconds:       build.Seconds(),
		RoundsPerSec:       float64(rounds) / elapsed.Seconds(),
		BytesPerNode:       float64(mem.liveBytes) / float64(n),
		PeakHeapAllocBytes: mem.peakAlloc,
		PeakHeapInuseBytes: mem.peakInuse,
		MeasuredKbps:       sum / float64(members),
		AnalyticKbps:       ss.AnalyticKbps(),
		Continuity:         ss.MeanContinuity(),
	}
	fp := cohortFingerprint(ss)
	runtime.KeepAlive(ss)
	return res, fp, nil
}

// cohortPoint runs one sampled size serially, re-runs it at `workers`,
// and records the byte-identity of the two cohort reports.
func cohortPoint(n, stream, modBits, workers int, seed uint64) (scaleRun, error) {
	res, serFP, err := scaleCohort(n, stream, modBits, 0, seed, scaleCohortRounds)
	if err != nil {
		return scaleRun{}, err
	}
	if workers < 1 {
		workers = 2
	}
	_, parFP, err := scaleCohort(n, stream, modBits, workers, seed, scaleCohortRounds)
	if err != nil {
		return scaleRun{}, err
	}
	identical := serFP == parFP
	res.CohortIdentical = &identical
	return res, nil
}

// runScaleBench drives the -scale mode.
func runScaleBench(out string, stream, modBits, workers int, seed uint64, short bool) int {
	if short {
		return runScaleSmoke(stream, modBits, workers, seed)
	}
	report := scaleReport{
		Benchmark:   "scale",
		NumCPU:      runtime.NumCPU(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Workers:     workers,
		StreamKbps:  stream,
		ModulusBits: modBits,
		Seed:        seed,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
	}

	for _, n := range []int{1296, 4096, scaleFullMax} {
		res, err := scaleFull(n, stream, modBits, seed, scaleFullRounds, false)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pag-bench: scale N=%d: %v\n", n, err)
			return 1
		}
		report.Results = append(report.Results, res)
		fmt.Fprintf(os.Stderr,
			"pag-bench: scale N=%-6d full    %6.3f rounds/s  %7.0f B/node  %6.1f kbps (analytic %6.1f)  continuity %.3f\n",
			n, res.RoundsPerSec, res.BytesPerNode, res.MeasuredKbps, res.AnalyticKbps, res.Continuity)
		if n == 4096 {
			report.FlyweightBytesPerNode = res.BytesPerNode
			ablated, err := scaleFull(n, stream, modBits, seed, scaleFullRounds, true)
			if err != nil {
				fmt.Fprintf(os.Stderr, "pag-bench: scale N=%d ablated: %v\n", n, err)
				return 1
			}
			report.AblatedBytesPerNode = ablated.BytesPerNode
			report.FlyweightReduction = ablated.BytesPerNode / res.BytesPerNode
			fmt.Fprintf(os.Stderr,
				"pag-bench: scale N=%-6d ablated %6.3f rounds/s  %7.0f B/node  (flyweight reduction %.2fx)\n",
				n, ablated.RoundsPerSec, ablated.BytesPerNode, report.FlyweightReduction)
		}
	}

	res, err := cohortPoint(131072, stream, modBits, workers, seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pag-bench: scale N=131072: %v\n", err)
		return 1
	}
	report.Results = append(report.Results, res)
	fmt.Fprintf(os.Stderr,
		"pag-bench: scale N=%-6d cohort  %6.3f rounds/s  %7.0f B/node  %6.1f kbps (analytic %6.1f)  identical=%v\n",
		res.GlobalNodes, res.RoundsPerSec, res.BytesPerNode, res.MeasuredKbps, res.AnalyticKbps, *res.CohortIdentical)

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "pag-bench:", err)
		return 1
	}
	data = append(data, '\n')
	if out == "-" {
		os.Stdout.Write(data)
		return 0
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "pag-bench:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "pag-bench: wrote %s\n", out)
	return 0
}

// runScaleSmoke is the CI gate (-scale -short): one short full-fidelity
// run at N=1296 asserting the live bytes/node budget, plus a cohort
// byte-identity check at the same modelled size. No artifact is written
// — a smoke box's numbers must never replace a recorded measurement.
func runScaleSmoke(stream, modBits, workers int, seed uint64) int {
	full, err := scaleFull(1296, stream, modBits, seed, 2, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pag-bench: scale smoke:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "pag-bench: scale smoke N=1296 full: %.0f B/node (budget %d), %.3f rounds/s\n",
		full.BytesPerNode, shortBudgetBytes, full.RoundsPerSec)
	if full.BytesPerNode > shortBudgetBytes {
		fmt.Fprintf(os.Stderr, "pag-bench: scale smoke FAILED: %.0f B/node exceeds the %d budget\n",
			full.BytesPerNode, shortBudgetBytes)
		return 1
	}
	res, err := cohortPoint(1296, stream, modBits, workers, seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pag-bench: scale smoke:", err)
		return 1
	}
	if !*res.CohortIdentical {
		fmt.Fprintln(os.Stderr, "pag-bench: scale smoke FAILED: cohort report diverged across worker counts")
		return 1
	}
	fmt.Fprintf(os.Stderr, "pag-bench: scale smoke N=1296 cohort: byte-identical across workers, %.1f kbps (analytic %.1f)\n",
		res.MeasuredKbps, res.AnalyticKbps)
	return 0
}
