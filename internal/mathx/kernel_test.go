package mathx

import (
	"bytes"
	"crypto/rand"
	"math/big"
	"math/bits"
	"testing"
)

// kernelModulusBits is the width the 16-word row kernel serves: every
// modulus of these tests has exactly 16 limbs on 64-bit platforms.
const kernelModulusBits = 1024

// fuzzModulus turns arbitrary bytes into an odd modulus of exactly
// kernelModulusBits bits (top and bottom bits forced).
func fuzzModulus(b []byte) *big.Int {
	buf := make([]byte, kernelModulusBits/8)
	copy(buf, b)
	buf[0] |= 0x80
	buf[len(buf)-1] |= 1
	return new(big.Int).SetBytes(buf)
}

// montMulReference is x·y·R⁻¹ mod m on math/big, R = 2^(W·k).
func montMulReference(x, y, m *big.Int, k int) *big.Int {
	rInv := new(big.Int).Lsh(One, uint(k*bits.UintSize))
	rInv.ModInverse(rInv, m)
	z := new(big.Int).Mul(x, y)
	z.Mul(z, rInv)
	return z.Mod(z, m)
}

// checkMontMul runs the kernel's montMul on the plain limbs of x and y
// (both reduced mod m) and compares it with the math/big reference.
func checkMontMul(t *testing.T, mo *Modulus, x, y *big.Int) {
	t.Helper()
	m := mo.Int()
	x, y = new(big.Int).Mod(x, m), new(big.Int).Mod(y, m)
	z := make(Elem, mo.Words())
	mo.montMul(z, mo.elemFromBig(x), mo.elemFromBig(y))
	if got, want := bigFromElem(z), montMulReference(x, y, m, mo.Words()); got.Cmp(want) != 0 {
		t.Fatalf("montMul mod %x:\n x=%x\n y=%x\n got  %x\n want %x", m, x, y, got, want)
	}
}

// FuzzMontMul checks the Montgomery product on the 16-word row kernel
// (the assembly on amd64, pure Go under purego or elsewhere) against
// x·y·R⁻¹ mod m computed by math/big, for fuzzed 1024-bit odd moduli and
// operands. The seeds pin the boundary operands 0, 1 and m−1 and
// all-ones limbs (as the modulus and as operands).
func FuzzMontMul(f *testing.F) {
	allOnes := bytes.Repeat([]byte{0xff}, kernelModulusBits/8)
	m := fuzzModulus([]byte("kernel equivalence seed modulus"))
	mMinus1 := new(big.Int).Sub(m, One).Bytes()
	f.Add([]byte("kernel equivalence seed modulus"), []byte{0}, []byte{0})
	f.Add([]byte("kernel equivalence seed modulus"), []byte{1}, mMinus1)
	f.Add([]byte("kernel equivalence seed modulus"), mMinus1, mMinus1)
	f.Add([]byte("kernel equivalence seed modulus"), allOnes, allOnes)
	f.Add(allOnes, allOnes, allOnes)
	f.Add(allOnes, new(big.Int).Sub(fuzzModulus(allOnes), One).Bytes(), []byte{1})
	f.Fuzz(func(t *testing.T, mb, xb, yb []byte) {
		mo, err := NewModulus(fuzzModulus(mb))
		if err != nil {
			t.Fatal(err)
		}
		checkMontMul(t, mo, new(big.Int).SetBytes(xb), new(big.Int).SetBytes(yb))
	})
}

// TestExpElemRegular pins the fixed-window property of ExpElem: over
// exponents below a 160-bit q that share a word length but differ in bit
// length and Hamming weight, the ladder performs exactly the same number
// of Montgomery products, and every result matches big.Int.Exp.
func TestExpElemRegular(t *testing.T) {
	p, base := testModulus(t, kernelModulusBits)
	q, err := RandPrime(rand.Reader, 160)
	if err != nil {
		t.Fatal(err)
	}
	mo, err := NewModulus(p)
	if err != nil {
		t.Fatal(err)
	}
	products := 0
	mo.products = &products
	pow2 := func(n uint) *big.Int { return new(big.Int).Lsh(One, n) }
	random, err := RandInt(rand.Reader, q)
	if err != nil {
		t.Fatal(err)
	}
	random.SetBit(random, 150, 1) // keep it in the top word
	exps := []*big.Int{
		pow2(128),                              // shortest 3-word exponent, weight 1
		new(big.Int).Add(pow2(128), One),       // weight 2
		new(big.Int).Sub(pow2(159), One),       // 159 bits, all ones
		new(big.Int).Sub(q, One),               // the largest protocol exponent
		random,                                 // a typical r_i
		new(big.Int).Add(pow2(140), pow2(64)),  // sparse middle word
		new(big.Int).Or(pow2(130), pow2(63)),   // low word's top bit only
		new(big.Int).Sub(pow2(159), pow2(100)), // dense top, sparse bottom
		new(big.Int).Add(pow2(129), big.NewInt(0x5555)),
	}
	bm := mo.ToMont(base)
	want := -1
	for _, e := range exps {
		if e.Cmp(q) >= 0 || len(e.Bits()) != len(q.Bits()) {
			t.Fatalf("exponent %x is not a word-length-matched exponent below q", e)
		}
		products = 0
		got := mo.FromMont(mo.ExpElem(bm, e))
		if got.Cmp(new(big.Int).Exp(base, e, p)) != 0 {
			t.Fatalf("ExpElem(e=%x) disagrees with big.Int.Exp", e)
		}
		if want < 0 {
			want = products
		}
		if products != want {
			t.Fatalf("ExpElem(e=%x): %d Montgomery products, want %d (bit length %d, weight %d)",
				e, products, want, e.BitLen(), popCount(e))
		}
	}
}

func popCount(e *big.Int) int {
	n := 0
	for _, w := range e.Bits() {
		n += bits.OnesCount(uint(w))
	}
	return n
}
