package hhash

//go:generate go run montasm_gen.go

// mulADX8 sets dst = a·b·R⁻¹ mod m and sqrADX8 sets dst = a²·R⁻¹ mod m at
// 512 bits (mont_amd64.s, generated by montasm_gen.go). dst may alias the
// operands.
//
//go:noescape
func mulADX8(dst, a, b, m *[8]uint, n0inv uint)

//go:noescape
func sqrADX8(dst, a, m *[8]uint, n0inv uint)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// hasADX reports whether the CPU has MULX (BMI2) and ADCX/ADOX (ADX):
// CPUID leaf 7, EBX bits 8 and 19. Both work on general registers only,
// so no operating-system state check applies.
func hasADX() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	const bmi2, adx = 1 << 8, 1 << 19
	return ebx&bmi2 != 0 && ebx&adx != 0
}
