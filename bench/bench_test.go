package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// TestBenchmarkFileMatchesCommand holds BENCHMARK.json and the command
// together: the file lists exactly the workloads and metrics the command
// emits, with the same units, directions and bounds.
func TestBenchmarkFileMatchesCommand(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if want := []string{"go", "run", "./bench"}; !reflect.DeepEqual(file.Command, want) {
		t.Errorf("command %v, want %v", file.Command, want)
	}
	if want := []string{"bench"}; !reflect.DeepEqual(file.Paths, want) {
		t.Errorf("paths %v, want %v", file.Paths, want)
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", file.RunSeconds)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, the command has %d", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := file.Workloads[i]; got.Name != w.name {
			t.Errorf("workload %d is %q, the command has %q", i, got.Name, w.name)
		} else if got.Why == "" || len(got.Why) > 200 {
			t.Errorf("%s: why is %d characters, want 1..200", w.name, len(got.Why))
		}
	}
	if !reflect.DeepEqual(file.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the command's:\n file %v\n code %v", file.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(file.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the command's:\n file %v\n code %v", file.PerLayer, perLayer)
	}
	seen := map[string]bool{}
	for _, def := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[def.Name] {
			t.Errorf("metric %s is listed twice", def.Name)
		}
		seen[def.Name] = true
	}
}

type spanLine struct {
	Workload string `json:"workload"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// TestSmoke runs all four workload shapes at the smoke sizing, timed and
// traced, and checks what the full invocation relies on: every metric
// appears with a finite value, the boundary wrapper does not change the
// run, and the spans nest as the ledger assumes.
func TestSmoke(t *testing.T) {
	var ws []workload
	for _, w := range workloads {
		ws = append(ws, smokeSized(w))
	}
	var spans bytes.Buffer
	set, err := runAll(ws, options{seed: 1, repeats: 1, setups: 1, timed: true, traced: true, smoke: true, spans: &spans}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for i, wr := range set.Workloads {
		if len(wr.Failures) > 0 {
			t.Errorf("%s: %v", wr.Name, wr.Failures)
		}
		for _, def := range endToEnd {
			st, ok := wr.EndToEnd[def.Name]
			if !ok || math.IsNaN(st.Median) || math.IsInf(st.Median, 0) {
				t.Errorf("%s: end-to-end metric %s missing or not finite", wr.Name, def.Name)
			}
		}
		if len(wr.PerLayer) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", wr.Name, len(wr.PerLayer), len(perLayer))
		}
		for _, def := range perLayer {
			v, ok := wr.PerLayer[def.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: per-layer metric %s missing or not finite", wr.Name, def.Name)
			}
		}
		// The wrapper and the instruments sit outside the determinism
		// boundary: a wrapped, traced MemNet run is the unwrapped one.
		if !ws[i].tcp && wr.Traced.Fingerprint != wr.Runs[0].Fingerprint {
			t.Errorf("%s: traced fingerprint %s, timed %s", wr.Name, wr.Traced.Fingerprint, wr.Runs[0].Fingerprint)
		}
		if ws[i].workers == 0 {
			sum := wr.PerLayer["engine.step_ms_per_round"] + wr.PerLayer["transport.begin_round_ms_per_round"] +
				wr.PerLayer["transport.deliver_self_ms_per_round"] + wr.PerLayer["transport.send_ms_per_round"] +
				wr.PerLayer["core.handle_ms_per_round"] + wr.PerLayer["acting.handle_ms_per_round"]
			total := 0.0
			for _, ms := range wr.Traced.RoundMs {
				total += ms
			}
			if round := total / float64(wr.Traced.Rounds); math.Abs(sum-round) > 0.02*round {
				t.Errorf("%s: self times sum to %.3f ms per round, the rounds took %.3f", wr.Name, sum, round)
			}
		}
		cpu, alloc := 0.0, 0.0
		for name, v := range wr.PerLayer {
			switch {
			case name == "hhash.prime_cpu_share": // a part of hhash.cpu_share
			case strings.HasSuffix(name, ".cpu_share"):
				cpu += v
			case strings.HasSuffix(name, ".alloc_share"):
				alloc += v
			}
		}
		if math.Abs(cpu-100) > 1e-6 || math.Abs(alloc-100) > 1e-6 {
			t.Errorf("%s: cpu shares sum to %.4f, alloc shares to %.4f, want 100", wr.Name, cpu, alloc)
		}
		line, err := json.Marshal(wr.driverLine(true))
		if err != nil {
			t.Fatal(err)
		}
		var parsed struct {
			Metrics map[string]struct{} `json:"metrics"`
		}
		if err := json.Unmarshal(line, &parsed); err != nil || len(parsed.Metrics) != len(perLayer) {
			t.Errorf("%s: the driver line carries %d metrics, want %d (%v)", wr.Name, len(parsed.Metrics), len(perLayer), err)
		}
	}

	// Spans: send in handle or round, handle in deliver_all, deliver_all
	// and begin_round in round, each inside its parent's interval.
	parents := map[string][]string{"round": nil, "begin_round": {"round"}, "deliver_all": {"round"},
		"handle": {"deliver_all"}, "send": {"handle", "round"}}
	byWorkload := map[string][]spanLine{}
	sc := bufio.NewScanner(&spans)
	for sc.Scan() {
		var s spanLine
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("span line %q: %v", sc.Text(), err)
		}
		byWorkload[s.Workload] = append(byWorkload[s.Workload], s)
	}
	if len(byWorkload) != 3 {
		t.Errorf("spans from %d workloads, want the 3 serial ones", len(byWorkload))
	}
	for name, list := range byWorkload {
		seen := map[string]int{}
		for i, s := range list {
			seen[s.Name]++
			if s.ID != i || s.EndNs < s.StartNs {
				t.Fatalf("%s: span %d malformed: %+v", name, i, s)
			}
			want := parents[s.Name]
			if s.Parent < 0 {
				if want != nil {
					t.Fatalf("%s: %s span %d has no parent", name, s.Name, i)
				}
				continue
			}
			p := list[s.Parent]
			ok := false
			for _, w := range want {
				ok = ok || p.Name == w
			}
			if !ok || s.StartNs < p.StartNs || s.EndNs > p.EndNs {
				t.Fatalf("%s: %s span %d sits badly in %s span %d", name, s.Name, i, p.Name, s.Parent)
			}
		}
		for kind := range parents {
			if seen[kind] == 0 {
				t.Errorf("%s: no %s span", name, kind)
			}
		}
	}
}

//go:noinline
func spin(d time.Duration) (x uint64) {
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// TestProfileDecoderRoundTrip records a CPU profile of a known function
// and finds it again through the decoder.
func TestProfileDecoderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	spin(200 * time.Millisecond)
	pprof.StopCPUProfile()
	prof, err := decodeCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found, ns := false, int64(0)
	for i, stack := range prof.stacks {
		ns += prof.values[i][1]
		for _, fn := range stack {
			found = found || strings.HasSuffix(fn, ".spin")
		}
	}
	if !found || ns <= 0 {
		t.Errorf("decoded %d samples, %d ns; spin found: %v", len(prof.stacks), ns, found)
	}
	if layer, prime := attribute([]string{"math/big.(*Int).ProbablyPrime", "repro/internal/hhash.pregenPrime",
		"repro/internal/core.(*Node).HandleMessage"}); layer != "hhash" || !prime {
		t.Errorf("attribute gave %q prime=%v, want hhash true", layer, prime)
	}
	if layer, _ := attribute([]string{"runtime.mallocgc", "repro/internal/sim.(*Engine).RunRound", "main.main"}); layer != "engine" {
		t.Errorf("attribute gave %q, want engine", layer)
	}
}

// TestVerdict pins the comparison rule.
func TestVerdict(t *testing.T) {
	lowerIsBetter := metricDef{Name: "round_ms_p50", Better: lower, Bound: 0.10}
	higherIsBetter := metricDef{Name: "rounds_per_s", Better: higher, Bound: 0.10}
	for _, tc := range []struct {
		def            metricDef
		parent, change []float64
		want           string
	}{
		{lowerIsBetter, []float64{100, 101, 102}, []float64{103, 104, 105}, "ok"},
		{lowerIsBetter, []float64{100, 101, 102}, []float64{120, 121, 122}, "regressed"},
		{lowerIsBetter, []float64{100, 110, 130}, []float64{105, 112, 125}, "unresolved"},
		{lowerIsBetter, []float64{100, 110, 130}, []float64{80, 85, 99}, "ok"}, // every run better
		{higherIsBetter, []float64{10, 10.1, 10.2}, []float64{8, 8.1, 8.2}, "regressed"},
		{higherIsBetter, []float64{10, 10.1, 10.2}, []float64{11, 11.1, 11.2}, "ok"},
	} {
		if _, got := verdict(tc.def, summarize(tc.parent), summarize(tc.change)); got != tc.want {
			t.Errorf("%s %v -> %v: %s, want %s", tc.def.Name, tc.parent, tc.change, got, tc.want)
		}
	}
	// statistics.quantiles([1,2,4,8,16,32,64,128,256,512], n=4) = [3.5, 24, 160].
	if got, want := iqrShare([]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}), (160-3.5)/24; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
}
