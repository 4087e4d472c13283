package hhash

// The unrolled 128-bit (k=2) Montgomery kernels, the width sessions run
// by default: a multiply and a dedicated squaring. The squaring computes
// the cross product once, doubles it, adds the two diagonal squares and
// only then runs the reduction multiplies: 7 word multiplies against
// mul2's 8. The ladders spend four squarings per table multiply, so that
// is where a lift's time is. Everything lives in named locals: no bounds
// checks, no loop control.

import "math/bits"

func mul2(dst, a, b, mod []uint, n0inv uint) {
	ap := (*[2]uint)(a)
	mp := (*[2]uint)(mod)
	a0, a1 := ap[0], ap[1]
	m0, m1 := mp[0], mp[1]
	bp := (*[2]uint)(b)
	var t0, t1, t2 uint
	var hiA, loA, hiM, loM, v, cc, c1, c2, carA, carM, u uint
	bi := bp[0]
	hiA, loA = bits.Mul(a0, bi)
	v, cc = bits.Add(t0, loA, 0)
	carA = hiA + cc
	u = v * n0inv
	hiM, loM = bits.Mul(m0, u)
	_, cc = bits.Add(v, loM, 0)
	carM = hiM + cc
	hiA, loA = bits.Mul(a1, bi)
	v, cc = bits.Add(t1, loA, 0)
	hiA += cc
	v, cc = bits.Add(v, carA, 0)
	carA = hiA + cc
	hiM, loM = bits.Mul(m1, u)
	v, cc = bits.Add(v, loM, 0)
	hiM += cc
	v, cc = bits.Add(v, carM, 0)
	carM = hiM + cc
	t0 = v
	v, c1 = bits.Add(t2, carA, 0)
	v, c2 = bits.Add(v, carM, 0)
	t1 = v
	t2 = c1 + c2
	bi = bp[1]
	hiA, loA = bits.Mul(a0, bi)
	v, cc = bits.Add(t0, loA, 0)
	carA = hiA + cc
	u = v * n0inv
	hiM, loM = bits.Mul(m0, u)
	_, cc = bits.Add(v, loM, 0)
	carM = hiM + cc
	hiA, loA = bits.Mul(a1, bi)
	v, cc = bits.Add(t1, loA, 0)
	hiA += cc
	v, cc = bits.Add(v, carA, 0)
	carA = hiA + cc
	hiM, loM = bits.Mul(m1, u)
	v, cc = bits.Add(v, loM, 0)
	hiM += cc
	v, cc = bits.Add(v, carM, 0)
	carM = hiM + cc
	t0 = v
	v, c1 = bits.Add(t2, carA, 0)
	v, c2 = bits.Add(v, carM, 0)
	t1 = v
	t2 = c1 + c2
	dp := (*[2]uint)(dst)
	if t2 == 0 {
		less := false
		switch {
		case t1 != m1:
			less = t1 < m1
		default:
			less = t0 < m0
		}
		if less {
			dp[0], dp[1] = t0, t1
			return
		}
	}
	var borrow uint
	dp[0], borrow = bits.Sub(t0, m0, borrow)
	dp[1], borrow = bits.Sub(t1, m1, borrow)
}

func sqr2(dst, a, mod []uint, n0inv uint) {
	ap := (*[2]uint)(a)
	mp := (*[2]uint)(mod)
	a0, a1 := ap[0], ap[1]
	m0, m1 := mp[0], mp[1]
	var t0, t1, t2, t3 uint
	var hi, lo, c, carry, u, e uint
	hi, lo = bits.Mul(a0, a1)
	t1 = lo
	carry = hi
	t2 = carry
	t3 = t2 >> (_W - 1)
	t2 = t2<<1 | t1>>(_W-1)
	t1 <<= 1
	hi, lo = bits.Mul(a0, a0)
	t0 = lo
	t1, c = bits.Add(t1, hi, 0)
	hi, lo = bits.Mul(a1, a1)
	t2, c = bits.Add(t2, lo, c)
	t3, c = bits.Add(t3, hi, c)
	u = t0 * n0inv
	hi, lo = bits.Mul(u, m0)
	_, c = bits.Add(t0, lo, 0)
	carry = hi + c
	hi, lo = bits.Mul(u, m1)
	lo, c = bits.Add(lo, carry, 0)
	hi += c
	t1, c = bits.Add(t1, lo, 0)
	carry = hi + c
	t2, e = bits.Add(t2, carry, e)
	u = t1 * n0inv
	hi, lo = bits.Mul(u, m0)
	_, c = bits.Add(t1, lo, 0)
	carry = hi + c
	hi, lo = bits.Mul(u, m1)
	lo, c = bits.Add(lo, carry, 0)
	hi += c
	t2, c = bits.Add(t2, lo, 0)
	carry = hi + c
	t3, e = bits.Add(t3, carry, e)
	dp := (*[2]uint)(dst)
	if e == 0 {
		less := false
		switch {
		case t3 != m1:
			less = t3 < m1
		default:
			less = t2 < m0
		}
		if less {
			dp[0], dp[1] = t2, t3
			return
		}
	}
	var borrow uint
	dp[0], borrow = bits.Sub(t2, m0, borrow)
	dp[1], borrow = bits.Sub(t3, m1, borrow)
}
