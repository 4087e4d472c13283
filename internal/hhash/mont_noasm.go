//go:build !amd64

package hhash

func hasADX() bool { return false }

func mulADX8(dst, a, b, m *[8]uint, n0inv uint) { panic("hhash: no assembly kernel") }
func sqrADX8(dst, a, m *[8]uint, n0inv uint)    { panic("hhash: no assembly kernel") }
