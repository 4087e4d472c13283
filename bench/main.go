// Command bench is the repository's one benchmark: four named workloads,
// eight end-to-end metrics measured with tracing off, and a per-layer
// ledger from a separate traced run. README.md says why each workload
// exists and how the metrics interact; BENCHMARK.json is the contract a
// driver runs it by.
//
//	go run ./bench                        # all four workloads, 3 repeats, traced run, report
//	go run ./bench -out set.json          # ... and the result set as JSON
//	go run ./bench -compare a.json b.json # two result sets, metric by metric
//	go run ./bench --workload pag_paper_12 --seed 7 --seconds 10 --trace 0
//
// With -trace 0 or 1 it makes one run of one workload and prints, as its
// last line, one JSON object: the end-to-end metrics (0) or the per-layer
// metrics (1).
//
// It is a closed loop: one driver goroutine, round r+1 starts when round r
// has quiesced, delivery is instant, sockets cross the host loopback, and
// all load comes from this process.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/stats"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options is one invocation's plan.
type options struct {
	seed    uint64
	seconds float64 // 0: each workload's own round count
	repeats int     // timed runs per workload
	setups  int     // set-ups per timed run (the median is setup_s)
	timed   bool
	traced  bool
	smoke   bool
	spans   io.Writer // nil: spans are dropped once accounted
}

func (o options) window(w workload, share float64) window {
	if o.seconds > 0 {
		return window{d: time.Duration(o.seconds * share * float64(time.Second))}
	}
	return window{rounds: w.rounds}
}

func (o options) unitBudget() time.Duration {
	if o.smoke {
		return time.Millisecond
	}
	return 100 * time.Millisecond
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "run only this workload (default: all four)")
		seed    = fs.Uint64("seed", 1, "the only input to session membership and the scenario timeline")
		seconds = fs.Float64("seconds", 0, "measure for this long instead of each workload's round count")
		trace   = fs.Int("trace", -1, "one run of one workload, result as the last line: 0 timed, 1 traced (default: both, as a report)")
		repeats = fs.Int("repeats", 3, "timed runs per workload, interleaved across workloads")
		out     = fs.String("out", "", "write the result set to this file as JSON")
		spans   = fs.String("spans", "", "write the traced runs' spans to this file as JSONL")
		smoke   = fs.Bool("smoke", false, "tier-1 sizing: N=16, 2+3 rounds, outcome checks off")
		compare = fs.Bool("compare", false, "compare two result sets: -compare parent.json change.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two result-set files"))
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}

	selected := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", *name))
		}
		selected = []workload{w}
	}
	if *smoke {
		selected = append([]workload(nil), selected...)
		for i := range selected {
			selected[i] = smokeSized(selected[i])
		}
	}
	opt := options{seed: *seed, seconds: *seconds, repeats: *repeats, setups: 1,
		timed: true, traced: true, smoke: *smoke}
	if *trace >= 0 {
		if len(selected) != 1 {
			return fail(fmt.Errorf("-trace %d makes one run: name the workload", *trace))
		}
		// One run: the timed one sets up several times for setup_s; the
		// traced one still needs an untraced window to price the tracing.
		opt.repeats = 1
		opt.timed, opt.traced = *trace == 0, *trace == 1
		if opt.timed {
			opt.setups = 3
		}
	}
	if *spans != "" {
		f, err := os.Create(*spans)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		opt.spans = f
	}

	set, err := runAll(selected, opt, stderr)
	if err != nil {
		return fail(err)
	}
	if *out != "" {
		data, err := json.MarshalIndent(set, "", " ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return fail(err)
		}
	}
	if *trace >= 0 {
		if err := json.NewEncoder(stdout).Encode(set.Workloads[0].driverLine(*trace == 1)); err != nil {
			return fail(err)
		}
	} else {
		set.report(stdout)
	}
	for _, wr := range set.Workloads {
		for _, f := range wr.Failures {
			fmt.Fprintf(stderr, "bench: %s: FAILED: %s\n", wr.Name, f)
		}
	}
	if !set.correct() {
		return 1
	}
	return 0
}

// stat summarises one metric over the timed repeats.
type stat struct {
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	N      int       `json:"n"`
	Values []float64 `json:"values,omitempty"`
}

func summarize(values []float64) stat {
	s := stats.NewSample(values)
	return stat{Median: s.Median(), Min: s.Min(), Max: s.Max(), N: len(values), Values: values}
}

// workloadResult is everything one invocation learned about a workload.
type workloadResult struct {
	Name     string             `json:"name"`
	Runs     []*runResult       `json:"runs,omitempty"`
	EndToEnd map[string]stat    `json:"end_to_end,omitempty"`
	Traced   *runResult         `json:"traced,omitempty"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
	Failures []string           `json:"failures,omitempty"`
}

// resultSet is one invocation's output: what -out writes, what -compare
// reads and what baseline.json holds.
type resultSet struct {
	Host      hostInfo          `json:"host"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds,omitempty"`
	Smoke     bool              `json:"smoke,omitempty"`
	Workloads []*workloadResult `json:"workloads"`
}

type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Kernel     string `json:"kernel"`
	When       string `json:"when"`
}

func host() hostInfo {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	return hostInfo{NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Kernel: strings.TrimSpace(string(kernel)), When: time.Now().UTC().Format(time.RFC3339)}
}

func (s *resultSet) correct() bool {
	for _, wr := range s.Workloads {
		if len(wr.Failures) > 0 {
			return false
		}
	}
	return true
}

// runAll makes the timed repeats — round-robin across workloads, so host
// drift hits every workload alike — and then one traced run per workload.
func runAll(ws []workload, opt options, progress io.Writer) (*resultSet, error) {
	set := &resultSet{Host: host(), Seed: opt.seed, Seconds: opt.seconds, Smoke: opt.smoke}
	for _, w := range ws {
		set.Workloads = append(set.Workloads, &workloadResult{Name: w.name})
	}
	share := 1.0
	if !opt.timed { // a traced-only run splits its window with the untraced baseline
		share = 0.5
	}
	for rep := 0; rep < opt.repeats; rep++ {
		for i, w := range ws {
			res, err := w.measure(opt.seed, opt.window(w, share), opt.setups, nil)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(progress, "bench: %s repeat %d: %d rounds in %.1fs after %.1fs set-up\n",
				w.name, rep+1, res.Rounds, res.WallS, res.SetupS[len(res.SetupS)-1])
			set.Workloads[i].Runs = append(set.Workloads[i].Runs, res)
		}
	}
	for i, w := range ws {
		wr := set.Workloads[i]
		wr.aggregate(w)
		if !opt.traced {
			continue
		}
		res, layers, err := w.traced(opt.seed, opt.window(w, share), wr.EndToEnd["round_ms_p50"].Median,
			opt.unitBudget(), opt.spans)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(progress, "bench: %s traced: %d rounds in %.1fs\n", w.name, res.Rounds, res.WallS)
		wr.Traced, wr.PerLayer = res, layers
		for _, f := range res.Failures {
			wr.Failures = append(wr.Failures, "traced run: "+f)
		}
		if !w.tcp && res.Rounds == wr.Runs[0].Rounds && res.Fingerprint != wr.Runs[0].Fingerprint {
			wr.Failures = append(wr.Failures, "the traced run's fingerprint differs from the timed runs'")
		}
		if !opt.timed {
			wr.Runs, wr.EndToEnd = nil, nil // the half window only priced the tracing
		}
	}
	return set, nil
}

// aggregate folds the timed repeats into per-metric statistics and checks
// that a MemNet workload repeated exactly.
func (wr *workloadResult) aggregate(w workload) {
	wr.EndToEnd = map[string]stat{}
	for _, def := range endToEnd {
		var values []float64
		for _, r := range wr.Runs {
			values = append(values, r.Metrics[def.Name])
		}
		wr.EndToEnd[def.Name] = summarize(values)
	}
	// round_ms_p50 is the median over every measured round of every
	// repeat; min and max stay the per-repeat medians.
	var pooled []float64
	for _, r := range wr.Runs {
		pooled = append(pooled, r.RoundMs...)
	}
	p50 := wr.EndToEnd["round_ms_p50"]
	p50.Median = median(pooled)
	wr.EndToEnd["round_ms_p50"] = p50

	for i, r := range wr.Runs {
		for _, f := range r.Failures {
			wr.Failures = append(wr.Failures, fmt.Sprintf("repeat %d: %s", i+1, f))
		}
		if !w.tcp && r.Rounds == wr.Runs[0].Rounds && r.Fingerprint != wr.Runs[0].Fingerprint {
			wr.Failures = append(wr.Failures, fmt.Sprintf("repeat %d: fingerprint differs from repeat 1 on MemNet", i+1))
		}
	}
}

// driverLine is the one-run result a driver reads from the last line of
// standard output. An operation is one round; missed playouts are not
// failed operations but the continuity metric (README.md, "Operations").
func (wr *workloadResult) driverLine(traced bool) any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: len(wr.Failures) == 0, Metrics: map[string]value{}}
	res, defs := wr.Traced, perLayer
	if !traced {
		res, defs = wr.Runs[0], endToEnd
	}
	line.Attempted, line.Failed = res.Rounds, res.RoundsFailed
	for _, def := range defs {
		v := wr.PerLayer[def.Name]
		if !traced {
			v = wr.EndToEnd[def.Name].Median
		}
		line.Metrics[def.Name] = value{v, def.Unit}
	}
	return line
}

// report prints every metric by name with its unit, sample count and
// spread.
func (s *resultSet) report(w io.Writer) {
	fmt.Fprintf(w, "host: %d cpus, GOMAXPROCS %d, %s, linux %s; seed %d\n",
		s.Host.NumCPU, s.Host.GoMaxProcs, s.Host.GoVersion, s.Host.Kernel, s.Seed)
	for _, wr := range s.Workloads {
		fmt.Fprintf(w, "\n== %s ==\n", wr.Name)
		if len(wr.Runs) > 0 {
			var attempted, failed uint64
			rounds := 0
			for _, r := range wr.Runs {
				attempted, failed, rounds = attempted+r.OpsAttempted, failed+r.OpsFailed, rounds+r.Rounds
			}
			fmt.Fprintf(w, "%d timed runs, %d measured rounds; ops_attempted %d, ops_failed %d (playouts due / missed)\n",
				len(wr.Runs), rounds, attempted, failed)
			fmt.Fprintf(w, "%-44s %-6s %12s %12s %12s %3s\n", "end to end", "unit", "median", "min", "max", "n")
			for _, def := range endToEnd {
				st := wr.EndToEnd[def.Name]
				fmt.Fprintf(w, "%-44s %-6s %12.4f %12.4f %12.4f %3d\n", def.Name, def.Unit, st.Median, st.Min, st.Max, st.N)
			}
		}
		if wr.Traced != nil {
			fmt.Fprintf(w, "%-44s %-6s %12s   (one traced run, %d rounds)\n", "per layer", "unit", "value", wr.Traced.Rounds)
			for _, def := range perLayer {
				fmt.Fprintf(w, "%-44s %-6s %12.4f\n", def.Name, def.Unit, wr.PerLayer[def.Name])
			}
		}
		status := "ok"
		if len(wr.Failures) > 0 {
			status = "FAILED: " + strings.Join(wr.Failures, "; ")
		}
		fmt.Fprintf(w, "checks: %s\n", status)
	}
}
