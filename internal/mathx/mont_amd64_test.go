//go:build amd64 && !purego

package mathx

import (
	"crypto/rand"
	"math/big"
	"testing"
)

// TestMontKernelBothPaths runs the assembly row kernel down both of its
// paths — MULQ, and ADCX/ADOX/MULX when the CPU has ADX and BMI2 — by
// flipping supportADX, checking Montgomery products at 1024 bits (one
// kernel call per row) and 2048 bits (two chained calls per row) plus a
// full ExpElem against math/big.
func TestMontKernelBothPaths(t *testing.T) {
	saved := supportADX
	defer func() { supportADX = saved }()
	paths := []bool{false}
	if hasADXBMI2() {
		paths = append(paths, true)
	} else {
		t.Log("CPU lacks ADX/BMI2: only the MULQ path runs")
	}
	for _, adx := range paths {
		supportADX = adx
		for _, nbits := range []int{1024, 2048} {
			p, err := RandPrime(rand.Reader, nbits)
			if err != nil {
				t.Fatal(err)
			}
			mo, err := NewModulus(p)
			if err != nil {
				t.Fatal(err)
			}
			operands := []*big.Int{big.NewInt(0), big.NewInt(1), new(big.Int).Sub(p, One)}
			for i := 0; i < 8; i++ {
				v, err := RandInt(rand.Reader, p)
				if err != nil {
					t.Fatal(err)
				}
				operands = append(operands, v)
			}
			for _, x := range operands {
				for _, y := range operands {
					checkMontMul(t, mo, x, y)
				}
			}
			e, err := RandInt(rand.Reader, new(big.Int).Lsh(One, 160))
			if err != nil {
				t.Fatal(err)
			}
			b := operands[len(operands)-1]
			if got := mo.FromMont(mo.ExpElem(mo.ToMont(b), e)); got.Cmp(new(big.Int).Exp(b, e, p)) != 0 {
				t.Fatalf("adx=%v %d bits: ExpElem disagrees with big.Int.Exp", adx, nbits)
			}
		}
	}
}
