package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
)

// CPU and allocation attribution without a pprof dependency: a decoder
// for the four parts of the gzip'd profile.proto that runtime/pprof
// writes (samples, locations, functions, string table), and
// runtime.MemProfile for allocations. Every sample goes to the leaf-most
// frame that belongs to one of this repository's internal packages — the
// package's self cost, callees in other packages of the repository
// excluded, standard-library callees included.

// cpuProfile is a decoded profile: each sample's stack as function names,
// leaf first, and its values (runtime/pprof writes [samples, cpu ns]).
type cpuProfile struct {
	stacks [][]string
	values [][]int64
}

// protoFields walks one protobuf message, calling fn per field with the
// varint value (wire types 0, 1, 5) or the bytes (wire type 2).
func protoFields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("profile: bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, data); err != nil {
			return err
		}
	}
	return nil
}

// repeatedVarint appends a repeated integer field's values, packed or not.
func repeatedVarint(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errors.New("profile: bad packed varint")
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst, nil
}

// decodeCPUProfile decodes what pprof.StartCPUProfile wrote.
func decodeCPUProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct{ locs, values []uint64 }
	var (
		samples  []sample
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost inlined frame first
		funcName = map[uint64]uint64{}   // function id -> string index
		strs     []string
	)
	err = protoFields(raw, func(num int, _ uint64, data []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := protoFields(data, func(num int, v uint64, d []byte) (err error) {
				switch num {
				case 1:
					s.locs, err = repeatedVarint(s.locs, v, d)
				case 2:
					s.values, err = repeatedVarint(s.values, v, d)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := protoFields(data, func(num int, v uint64, d []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return protoFields(d, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := protoFields(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &cpuProfile{}
	for _, s := range samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcName[fn]; i < uint64(len(strs)) {
					stack = append(stack, strs[i])
				}
			}
		}
		values := make([]int64, len(s.values))
		for i, v := range s.values {
			values[i] = int64(v)
		}
		p.stacks = append(p.stacks, stack)
		p.values = append(p.values, values)
	}
	return p, nil
}

// layerOf maps a function name to the layer it belongs to, or "" outside
// this repository's internal packages. The two round engines are one
// layer.
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, "repro/internal/")
	if !ok {
		return ""
	}
	pkg := rest[:strings.IndexAny(rest+".", "./")]
	if pkg == "sim" {
		return "engine"
	}
	return pkg
}

// attribute gives a stack's cost to its leaf-most layer ("other" when no
// frame is in a layer) and reports whether any frame is prime search.
func attribute(stack []string) (layer string, prime bool) {
	layer = "other"
	for i := len(stack) - 1; i >= 0; i-- {
		if l := layerOf(stack[i]); l != "" {
			layer = l
		}
		if strings.Contains(strings.ToLower(stack[i]), "prime") {
			prime = true
		}
	}
	return layer, prime
}

// cpuByLayer sums CPU nanoseconds per layer; primeNs is the part of hhash
// spent under a frame whose name contains "prime".
func (p *cpuProfile) cpuByLayer() (byLayer map[string]float64, primeNs float64) {
	byLayer = map[string]float64{}
	for i, stack := range p.stacks {
		if len(p.values[i]) < 2 {
			continue
		}
		ns := float64(p.values[i][1])
		layer, prime := attribute(stack)
		byLayer[layer] += ns
		if layer == "hhash" && prime {
			primeNs += ns
		}
	}
	return byLayer, primeNs
}

// allocByLayer returns the bytes allocated so far per layer, from the
// runtime's sampled allocation profile, each record scaled up from its
// sampling probability as pprof does. Two collections first: the profile
// lags allocation by up to two cycles.
func allocByLayer() map[string]float64 {
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	for n, ok := runtime.MemProfile(nil, true); !ok; {
		recs = make([]runtime.MemProfileRecord, n+64)
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
		}
	}
	rate := float64(runtime.MemProfileRate)
	out := map[string]float64{}
	for _, r := range recs {
		if r.AllocObjects == 0 {
			continue
		}
		bytes := float64(r.AllocBytes)
		if rate > 1 {
			bytes /= 1 - math.Exp(-bytes/float64(r.AllocObjects)/rate)
		}
		var stack []string
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			stack = append(stack, f.Function)
			if !more {
				break
			}
		}
		layer, _ := attribute(stack)
		out[layer] += bytes
	}
	return out
}

// shares turns per-layer totals into percentages of their sum.
func shares(byLayer map[string]float64) map[string]float64 {
	total := 0.0
	for _, v := range byLayer {
		total += v
	}
	out := map[string]float64{}
	for name, v := range byLayer {
		if total > 0 {
			out[name] = 100 * v / total
		}
	}
	return out
}
