//go:build amd64 && !purego

package mathx

import "math/big"

// supportADX selects the ADCX/ADOX/MULX path of addMulVVW1024 (both
// extensions are needed: ADX for the two carry chains, BMI2 for MULX).
// Without them the kernel runs its MULQ path; both paths compute the same
// words. Tests flip it to cover both paths on one machine.
var supportADX = hasADXBMI2()

// hasADXBMI2 reads CPUID leaf 7 (structured extended features): BMI2 is
// EBX bit 8, ADX is EBX bit 19. Neither needs OS support (they touch only
// general-purpose registers and flags), so no XGETBV check is required.
func hasADXBMI2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	const bmi2, adx = 1 << 8, 1 << 19
	return ebx&bmi2 != 0 && ebx&adx != 0
}

// cpuid executes the CPUID instruction for the given leaf and subleaf.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// addMulVVW1024 computes z[0:16] += x[0:16]·y and returns the outgoing
// carry word (mont_amd64.s).
//
//go:noescape
func addMulVVW1024(z, x *big.Word, y big.Word) (c big.Word)

// addMulWin16 is the 16-word (1024-bit) row of every Montgomery
// operation, on the assembly kernel. The length checks keep the pointer
// hand-off memory-safe.
func addMulWin16(z, x []big.Word, y big.Word) big.Word {
	_, _ = z[15], x[15]
	return addMulVVW1024(&z[0], &x[0], y)
}
