//go:build ignore

// montasm_gen writes mont_amd64.s: the Montgomery kernels on
// MULX/ADCX/ADOX — multiplication at 256 bits (k=4 limbs) and 512 bits
// (k=8), squaring at 512 — and the CPUID stub that gates them. Run by
// `go generate ./internal/hhash`; the output is committed and never edited
// by hand.
//
// A multiplication is the plain (two-pass) CIOS loop, fully unrolled. Per
// word b[i] of the multiplier:
//
//	pass 1   t += a·b[i]
//	         u  = t[0]·n0inv
//	pass 2   t  = (t + m·u) / 2^64
//
// MULX leaves the flags alone, so each pass runs two independent carry
// chains through the accumulator at once: the low halves of the k
// products ride CF (ADCX) into t[j], the high halves ride OF (ADOX) into
// t[j+1].
//
// The accumulator is k+2 limbs, not k+1. Before a pass t < 2m; pass 1
// adds up to m·(2^64-1), and with the top bit of m set 2m + m·(2^64-1)
// passes 2^(64(k+1)): a carry leaves limb k. Pass 2 adds as much again
// before its shift brings t back under 2m, so limb k+1 is live from the
// tail of pass 1 to the tail of pass 2 (m = 2^512-1, a = b = m-1 sets it).
//
// The division by 2^64 is a renaming: pass 2 turns t[0] into zero, the
// unrolled code calls t[1] "t[0]" from then on, and the zeroed register
// becomes the next iteration's limb k+1. The same zero is the addend that
// drains both carry chains at the tail of pass 2; at the tail of pass 1
// the still-zero limb k+1 serves. No instruction loads an immediate zero
// into a register mid-chain: the assembler rewrites MOVQ $0, R to XORL,
// which clears CF and OF.
//
// The squaring builds the 2k-limb square on the stack — every cross
// product once, then one pass that doubles the sum on CF while adding the
// squares a[i]² on OF — and runs the same pass 2 over it k times, pass 1
// shrunk to taking in the square's next limb.
//
// Operands are read from memory as they are needed and dst is written only
// after the last read, so dst may alias them.
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"
)

// Every general register but SP and BP (the frame pointer must survive
// for profilers and tracebacks); R14 and R15 are free in an ABI0 leaf.
const (
	mulReg = "DX" // MULX's implicit multiplicand: b[i], then u
	loReg  = "AX"
	hiReg  = "BX"
	ptrReg = "CX" // a, then m, reloaded per pass when no register is spare
)

var pool = []string{"SI", "DI", "R8", "R9", "R10", "R11", "R12", "R13", "R14", "R15"}

type gen struct {
	bytes.Buffer
	k    int
	t    []string          // the k+2 accumulator registers, before renaming
	held map[string]string // argument -> register holding it for the whole call
	off  map[string]int    // argument -> frame offset
}

func (g *gen) ins(format string, args ...any) {
	g.WriteByte('\t')
	fmt.Fprintf(g, format, args...)
	g.WriteByte('\n')
}

// limb names the register holding t[j] during iteration i.
func (g *gen) limb(i, j int) string { return g.t[(i+j)%len(g.t)] }

// arg returns a register holding the pointer argument, loading it into
// the shared pointer register when the width leaves none to spare.
func (g *gen) arg(name string) string {
	if r, ok := g.held[name]; ok {
		return r
	}
	g.ins("MOVQ %s+%d(FP), %s", name, g.off[name], ptrReg)
	return ptrReg
}

// pass emits t += src·DX over limbs 0..k-1 on the two carry chains; the
// caller has cleared CF and OF and drains them afterwards.
func (g *gen) pass(i int, src string) {
	for j := 0; j < g.k; j++ {
		g.ins("MULXQ %d(%s), %s, %s", 8*j, src, loReg, hiReg)
		g.ins("ADCXQ %s, %s", loReg, g.limb(i, j))
		g.ins("ADOXQ %s, %s", hiReg, g.limb(i, j+1))
	}
}

func (g *gen) mul() {
	k := g.k
	fmt.Fprintf(g, "\n// func mulADX%d(dst, a, b, m *[%d]uint, n0inv uint)\n", k, k)
	fmt.Fprintf(g, "// Requires: ADX, BMI2\n")
	fmt.Fprintf(g, "TEXT ·mulADX%d(SB), NOSPLIT, $0-40\n", k)
	for _, name := range []string{"a", "b", "m"} {
		if r, ok := g.held[name]; ok {
			g.ins("MOVQ %s+%d(FP), %s", name, g.off[name], r)
		}
	}
	for i := 0; i < k; i++ {
		top := g.limb(i, k+1)
		fmt.Fprintf(g, "\n\t// b[%d]: t += a*b[%d]\n", i, i)
		if r, ok := g.held["b"]; ok {
			g.ins("MOVQ %d(%s), %s", 8*i, r, mulReg)
		} else {
			g.ins("MOVQ b+%d(FP), %s", g.off["b"], mulReg)
			g.ins("MOVQ %d(%s), %s", 8*i, mulReg, mulReg)
		}
		a := g.arg("a")
		if i == 0 {
			// t is zero: the products land in it directly, on one chain.
			g.ins("MULXQ 0(%s), %s, %s", a, g.limb(0, 0), g.limb(0, 1))
			for j := 1; j < k; j++ {
				g.ins("MULXQ %d(%s), %s, %s", 8*j, a, loReg, g.limb(0, j+1))
				if j == 1 {
					g.ins("ADDQ %s, %s", loReg, g.limb(0, j))
				} else {
					g.ins("ADCQ %s, %s", loReg, g.limb(0, j))
				}
			}
			g.ins("ADCQ $0, %s", g.limb(0, k))
		} else {
			g.ins("XORQ %s, %s", top, top) // limb k+1 = 0; CF = OF = 0
			g.pass(i, a)
			g.ins("ADCXQ %s, %s", top, g.limb(i, k)) // limb k+1 is still zero
			g.ins("ADOXQ %s, %s", top, top)          // limb k+1 = OF
			g.ins("ADCQ $0, %s", top)                // OF is dead: plain ADC
		}

		g.reduce(i, i == 0)
	}
	g.finish()
}

// reduce emits t = (t + m·u) >> 64 with u = t[0]·n0inv, the second pass of
// iteration i. freshTop says limb k+1 has not been written yet.
func (g *gen) reduce(i int, freshTop bool) {
	k := g.k
	top := g.limb(i, k+1)
	fmt.Fprintf(g, "\n\t// t = (t + m*u) >> 64, u = t[0]*n0inv\n")
	g.ins("MOVQ %s, %s", g.limb(i, 0), mulReg)
	g.ins("IMULQ n0inv+%d(FP), %s", g.off["n0inv"], mulReg)
	if freshTop {
		g.ins("XORQ %s, %s", top, top) // limb k+1 = 0; CF = OF = 0
	} else {
		g.ins("XORQ %s, %s", loReg, loReg) // CF = OF = 0
	}
	g.pass(i, g.arg("m"))
	zero := g.limb(i, 0) // t[0] + lo(m[0]*u) = 0 mod 2^64
	g.ins("ADCXQ %s, %s", zero, g.limb(i, k))
	g.ins("ADOXQ %s, %s", zero, top)
	g.ins("ADCXQ %s, %s", zero, top)
}

// finish emits the conditional subtraction and the store. t < 2m sits in
// limbs 0..k of "iteration k": park it in dst, subtract m in the
// registers, and take the parked limbs back on a borrow.
func (g *gen) finish() {
	k := g.k
	fmt.Fprintf(g, "\n\t// dst = t - m if t >= m, else t\n")
	m := g.arg("m")
	g.ins("MOVQ dst+%d(FP), %s", g.off["dst"], loReg)
	for j := 0; j < k; j++ {
		g.ins("MOVQ %s, %d(%s)", g.limb(k, j), 8*j, loReg)
	}
	g.ins("SUBQ 0(%s), %s", m, g.limb(k, 0))
	for j := 1; j < k; j++ {
		g.ins("SBBQ %d(%s), %s", 8*j, m, g.limb(k, j))
	}
	g.ins("SBBQ $0, %s", g.limb(k, k))
	for j := 0; j < k; j++ {
		g.ins("CMOVQCS %d(%s), %s", 8*j, loReg, g.limb(k, j))
	}
	for j := 0; j < k; j++ {
		g.ins("MOVQ %s, %d(%s)", g.limb(k, j), 8*j, loReg)
	}
	g.ins("RET")
}

// sqr emits dst = a²·R⁻¹ mod m: the 2k-limb square first — each cross
// product a[i]·a[j] once, the sum doubled, the k squares a[i]² added —
// then k reduction passes over it. k(k+1)/2 + k² multiplies against mul's
// 2k².
func (g *gen) sqr() {
	k := g.k
	w := func(p int) string { return pool[p%len(pool)] } // product limb p, while it is in flight
	fmt.Fprintf(g, "\n// func sqrADX%d(dst, a, m *[%d]uint, n0inv uint)\n", k, k)
	fmt.Fprintf(g, "// Requires: ADX, BMI2\n")
	fmt.Fprintf(g, "TEXT ·sqrADX%d(SB), NOSPLIT, $%d-32\n", k, 16*k)
	a := g.arg("a")

	// Cross products, row by row; row i settles limbs 2i+1 and 2i+2.
	for i := 0; i+1 < k; i++ {
		fmt.Fprintf(g, "\n\t// a[%d]*a[%d..%d]\n", i, i+1, k-1)
		g.ins("MOVQ %d(%s), %s", 8*i, a, mulReg)
		if i == 0 {
			g.ins("MULXQ 8(%s), %s, %s", a, w(1), w(2))
			for j := 2; j < k; j++ {
				g.ins("MULXQ %d(%s), %s, %s", 8*j, a, loReg, w(j+1))
				if j == 2 {
					g.ins("ADDQ %s, %s", loReg, w(j))
				} else {
					g.ins("ADCQ %s, %s", loReg, w(j))
				}
			}
			g.ins("ADCQ $0, %s", w(k))
		} else {
			g.ins("XORQ %s, %s", w(i+k), w(i+k)) // a new top limb; CF = OF = 0
			for j := i + 1; j < k; j++ {
				g.ins("MULXQ %d(%s), %s, %s", 8*j, a, loReg, hiReg)
				g.ins("ADCXQ %s, %s", loReg, w(i+j))
				g.ins("ADOXQ %s, %s", hiReg, w(i+j+1))
			}
			g.ins("ADCQ $0, %s", w(i+k)) // the ADOX chain ended without a carry
		}
		g.ins("MOVQ %s, %d(SP)", w(2*i+1), 8*(2*i+1))
		g.ins("MOVQ %s, %d(SP)", w(2*i+2), 8*(2*i+2))
	}

	// Double and add the squares: doubling rides CF, the squares ride OF.
	// The low k limbs stay in the registers the reduction starts from.
	fmt.Fprintf(g, "\n\t// t = 2*t + sum a[i]^2 * 2^(128i)\n")
	zero, tmp := g.t[k+1], g.t[k]
	g.ins("XORQ %s, %s", zero, zero) // CF = OF = 0
	for p := 0; p < 2*k; p++ {
		if p%2 == 0 {
			g.ins("MOVQ %d(%s), %s", 8*(p/2), a, mulReg)
			g.ins("MULXQ %s, %s, %s", mulReg, loReg, hiReg)
		}
		add := loReg
		if p%2 == 1 {
			add = hiReg
		}
		r := tmp
		if p < k {
			r = g.t[p]
		}
		switch p {
		case 0:
			g.ins("MOVQ %s, %s", add, r)
			continue
		case 2*k - 1:
			g.ins("ADCXQ %s, %s", zero, add)
			g.ins("ADOXQ %s, %s", zero, add)
			r = add
		default:
			g.ins("MOVQ %d(SP), %s", 8*p, r)
			g.ins("ADCXQ %s, %s", r, r)
			g.ins("ADOXQ %s, %s", add, r)
		}
		if p >= k {
			g.ins("MOVQ %s, %d(SP)", r, 8*p)
		}
	}
	g.ins("XORQ %s, %s", tmp, tmp)

	// k reduction passes; each first takes in the next limb of the square.
	for i := 0; i < k; i++ {
		fmt.Fprintf(g, "\n\t// t += t2[%d] << %d\n", i+k, 64*k)
		g.ins("ADDQ %d(SP), %s", 8*(i+k), g.limb(i, k))
		g.ins("ADCQ $0, %s", g.limb(i, k+1))
		g.reduce(i, false)
	}
	g.finish()
}

const header = `// Code generated by go run montasm_gen.go. DO NOT EDIT.

#include "textflag.h"

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET
`

func main() {
	var out bytes.Buffer
	out.WriteString(header)
	for _, k := range []int{4, 8} {
		g := &gen{k: k, t: pool[:k+2], held: map[string]string{},
			off: map[string]int{"dst": 0, "a": 8, "b": 16, "m": 24, "n0inv": 32}}
		// Registers the accumulator leaves over hold the pointers.
		if spare := pool[k+2:]; len(spare) >= 3 {
			g.held["a"], g.held["m"], g.held["b"] = spare[0], spare[1], spare[2]
		}
		g.mul()
		out.Write(g.Bytes())

	}
	// A dedicated squaring is emitted where it measured at least 10 % under
	// mul(a, a): 17 % at k=8 in a dependent chain, 3 to 10 % at k=4. The
	// square in flight takes the whole pool, so pointers are reloaded.
	g := &gen{k: 8, t: pool[:8+2], off: map[string]int{"dst": 0, "a": 8, "m": 16, "n0inv": 24}}
	g.sqr()
	out.Write(g.Bytes())
	if err := os.WriteFile("mont_amd64.s", out.Bytes(), 0o644); err != nil {
		log.Fatal(err)
	}
}
