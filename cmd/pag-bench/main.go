// Command pag-bench records the two measurement artifacts the benchmark
// (`go run ./bench`) does not cover: the crypto microbenchmarks
// (BENCH_hhash.json) and the Fig 9 scaling run (BENCH_scale.json).
//
// Usage:
//
//	pag-bench -hhash BENCH_hhash.json
//	pag-bench -scale                  # writes BENCH_scale.json
//	pag-bench -scale -short           # CI smoke: checks, writes nothing
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		stream     = flag.Int("stream", 60, "stream bitrate in kbps (-scale)")
		modBits    = flag.Int("modulus", 128, "homomorphic modulus bits (-scale)")
		seed       = flag.Uint64("seed", 1, "session seed (-scale)")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "round-engine workers of the sampled-cohort cross-check (-scale; at least 2)")
		hhashOut   = flag.String("hhash", "", "record crypto microbenchmarks to this path (e.g. BENCH_hhash.json)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the runs to this path")
		memprofile = flag.String("memprofile", "", "write a heap profile (after the runs) to this path")
		scaleMode  = flag.Bool("scale", false, "record the Fig 9 scaling artifact (BENCH_scale.json)")
		scaleOut   = flag.String("scaleout", "BENCH_scale.json", "output path for -scale ('-' for stdout only)")
		short      = flag.Bool("short", false, "CI smoke with -scale: N=1296 bytes/node budget + cohort identity; writes no artifact")
	)
	flag.Parse()
	if *hhashOut == "" && !*scaleMode {
		fmt.Fprintln(os.Stderr, "pag-bench: pass -hhash <path> and/or -scale")
		flag.Usage()
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pag-bench:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "pag-bench:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "pag-bench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "pag-bench:", err)
			}
		}()
	}

	if *hhashOut != "" {
		if err := recordHHashBench(*hhashOut); err != nil {
			fmt.Fprintln(os.Stderr, "pag-bench:", err)
			return 1
		}
	}
	if *scaleMode {
		return runScaleBench(*scaleOut, *stream, *modBits, *workers, *seed, *short)
	}
	return 0
}

// memSample is the memory footprint of one run: the un-GC'd heap right
// after the measured window (a peak proxy) and the GC'd live set.
type memSample struct {
	peakAlloc, peakInuse uint64
	liveBytes            uint64
}

// sampleMem reads the peak proxy and then the post-GC live set.
func sampleMem() memSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m := memSample{peakAlloc: ms.HeapAlloc, peakInuse: ms.HeapInuse}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	m.liveBytes = ms.HeapAlloc
	return m
}
