package mathx

import (
	"crypto/rand"
	"math/big"
	"math/bits"
	"sync"
	"testing"
)

// montTestModuli builds the modulus shapes the engine must survive:
// word-boundary sizes (1024/2048 bits exactly), one word, a few odd
// non-prime composites, and sizes straddling a limb boundary.
func montTestModuli(t *testing.T) []*big.Int {
	t.Helper()
	out := []*big.Int{
		big.NewInt(3),
		big.NewInt(0xffffffff),               // dense low word
		new(big.Int).SetUint64(1<<63 + 1025), // exactly one 64-bit word, sparse
	}
	for _, bits := range []int{65, 127, 1024, 1025, 2048} {
		p, err := RandPrime(rand.Reader, bits)
		if err != nil {
			t.Fatalf("prime %d: %v", bits, err)
		}
		out = append(out, p)
	}
	// Odd composite (RSA-shaped): primes are not required by the engine.
	a, _ := RandPrime(rand.Reader, 512)
	b, _ := RandPrime(rand.Reader, 512)
	out = append(out, new(big.Int).Mul(a, b))
	return out
}

func TestNewModulusRejects(t *testing.T) {
	for _, m := range []*big.Int{nil, big.NewInt(0), big.NewInt(-7), big.NewInt(4), big.NewInt(1)} {
		if _, err := NewModulus(m); err == nil {
			t.Errorf("NewModulus(%v) accepted an invalid modulus", m)
		}
	}
	huge := new(big.Int).Lsh(One, uint(maxModulusWords*bits.UintSize))
	huge.Add(huge, One)
	if _, err := NewModulus(huge); err == nil {
		t.Errorf("NewModulus accepted a modulus beyond the engine width")
	}
}

// TestMontRoundTrip fuzzes ToMont/FromMont against math/big over every
// modulus shape, pinning the boundary operands 0, 1, m-1 and values >= m
// (which must reduce on entry).
func TestMontRoundTrip(t *testing.T) {
	for _, m := range montTestModuli(t) {
		mo, err := NewModulus(m)
		if err != nil {
			t.Fatalf("NewModulus(%d bits): %v", m.BitLen(), err)
		}
		cases := []*big.Int{
			big.NewInt(0),
			big.NewInt(1),
			new(big.Int).Sub(m, One),           // m-1
			new(big.Int).Set(m),                // ≡ 0
			new(big.Int).Add(m, One),           // ≡ 1
			new(big.Int).Mul(m, big.NewInt(7)), // ≡ 0, much wider than m
		}
		for i := 0; i < 20; i++ {
			v, err := RandInt(rand.Reader, m)
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, v)
		}
		for _, v := range cases {
			want := new(big.Int).Mod(v, m)
			if got := mo.FromMont(mo.ToMont(v)); got.Cmp(want) != 0 {
				t.Fatalf("round trip mod %d bits: v=%v got %v want %v", m.BitLen(), v, got, want)
			}
		}
	}
}

// TestMontMulSqr cross-checks Montgomery products and squares against
// math/big, including the 0 and m-1 boundary operands.
func TestMontMulSqr(t *testing.T) {
	for _, m := range montTestModuli(t) {
		mo, err := NewModulus(m)
		if err != nil {
			t.Fatal(err)
		}
		operands := []*big.Int{big.NewInt(0), big.NewInt(1), new(big.Int).Sub(m, One)}
		for i := 0; i < 10; i++ {
			v, err := RandInt(rand.Reader, m)
			if err != nil {
				t.Fatal(err)
			}
			operands = append(operands, v)
		}
		for _, x := range operands {
			mx := mo.ToMont(x)
			wantSq := new(big.Int).Mod(new(big.Int).Mul(x, x), m)
			if got := mo.FromMont(mo.Sqr(mx)); got.Cmp(wantSq) != 0 {
				t.Fatalf("sqr mod %d bits: x=%v got %v want %v", m.BitLen(), x, got, wantSq)
			}
			for _, y := range operands {
				my := mo.ToMont(y)
				want := new(big.Int).Mod(new(big.Int).Mul(x, y), m)
				if got := mo.FromMont(mo.Mul(mx, my)); got.Cmp(want) != 0 {
					t.Fatalf("mul mod %d bits: x=%v y=%v got %v want %v", m.BitLen(), x, y, got, want)
				}
			}
		}
	}
}

// TestMontExp cross-checks the windowed variable-base exponentiation
// against big.Int.Exp for random inputs at every modulus shape, plus the
// degenerate exponents 0, 1 and base cases 0, m-1.
func TestMontExp(t *testing.T) {
	for _, m := range montTestModuli(t) {
		mo, err := NewModulus(m)
		if err != nil {
			t.Fatal(err)
		}
		bases := []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(2), new(big.Int).Sub(m, One)}
		exps := []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(2), big.NewInt(65537)}
		for i := 0; i < 6; i++ {
			b, err := RandInt(rand.Reader, m)
			if err != nil {
				t.Fatal(err)
			}
			bases = append(bases, b)
			bl := uint(16 << i) // 16..512-bit exponents span every window width
			e, err := RandInt(rand.Reader, new(big.Int).Lsh(One, bl))
			if err != nil {
				t.Fatal(err)
			}
			exps = append(exps, e)
		}
		for _, b := range bases {
			for _, e := range exps {
				want := new(big.Int).Exp(b, e, m)
				if got := mo.FromMont(mo.ExpElem(mo.ToMont(b), e)); got.Cmp(want) != 0 {
					t.Fatalf("Exp(%v, %v) mod %d bits: got %v want %v", b, e, m.BitLen(), got, want)
				}
			}
		}
	}
}

// TestMontExpNegative checks that a negative exponent is resolved the way
// callers of the domain do it — invert first, then raise to |e| — against
// ModExp, and that ExpElem itself refuses a negative exponent.
func TestMontExpNegative(t *testing.T) {
	p, err := RandPrime(rand.Reader, 256)
	if err != nil {
		t.Fatal(err)
	}
	mo, err := NewModulus(p)
	if err != nil {
		t.Fatal(err)
	}
	b := big.NewInt(12345)
	e := big.NewInt(-789)
	want, err := ModExp(b, e, p)
	if err != nil {
		t.Fatal(err)
	}
	inv, err := ModInverse(b, p)
	if err != nil {
		t.Fatal(err)
	}
	if got := mo.FromMont(mo.ExpElem(mo.ToMont(inv), new(big.Int).Neg(e))); got.Cmp(want) != 0 {
		t.Fatalf("negative exponent: got %v want %v", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ExpElem accepted a negative exponent")
		}
	}()
	mo.ExpElem(mo.ToMont(b), e)
}

// TestMontMultiExp cross-checks the interleaved Montgomery multi-exp
// against the naive product of Exps over a 1024-bit prime with exponents
// of mixed lengths.
func TestMontMultiExp(t *testing.T) {
	p, err := RandPrime(rand.Reader, 1024)
	if err != nil {
		t.Fatal(err)
	}
	mo, err := NewModulus(p)
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 9; n += 4 {
		bases := make([]Elem, n)
		exps := make([]*big.Int, n)
		want := big.NewInt(1)
		for i := range bases {
			b, err := RandInt(rand.Reader, p)
			if err != nil {
				t.Fatal(err)
			}
			exps[i], err = RandInt(rand.Reader, new(big.Int).Lsh(One, uint(8+40*i)))
			if err != nil {
				t.Fatal(err)
			}
			bases[i] = mo.ToMont(b)
			want.Mul(want, new(big.Int).Exp(b, exps[i], p))
			want.Mod(want, p)
		}
		acc, err := mo.MultiExpElem(bases, exps)
		if err != nil {
			t.Fatal(err)
		}
		if got := mo.FromMont(acc); got.Cmp(want) != 0 {
			t.Fatalf("MultiExpElem n=%d: got %v want %v", n, got, want)
		}
	}
}

// TestMultiExpMatchesSeparateExps checks MultiExpElem against a product of
// separate ModExps in the RLC settlement's shape: a 256-bit prime, one to
// six bases, 64-bit exponents. Every third trial uses negative exponents,
// resolved the way callers of the domain do it: invert the base, then
// raise it to |e|.
func TestMultiExpMatchesSeparateExps(t *testing.T) {
	p, _ := testModulus(t, 256)
	mo, err := NewModulus(p)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		n := 1 + trial%6
		bases := make([]Elem, n)
		exps := make([]*big.Int, n)
		want := big.NewInt(1)
		for i := 0; i < n; i++ {
			b, err := RandInt(rand.Reader, p)
			if err != nil {
				t.Fatal(err)
			}
			if b.Sign() == 0 {
				b.SetInt64(3)
			}
			e, err := RandInt(rand.Reader, new(big.Int).Lsh(One, 64))
			if err != nil {
				t.Fatal(err)
			}
			if trial%3 == 0 {
				e.Neg(e)
			}
			t1, err := ModExp(b, e, p)
			if err != nil {
				t.Fatal(err)
			}
			want.Mul(want, t1)
			want.Mod(want, p)
			if e.Sign() < 0 {
				if b, err = ModInverse(b, p); err != nil {
					t.Fatal(err)
				}
				e.Neg(e)
			}
			bases[i], exps[i] = mo.ToMont(b), e
		}
		acc, err := mo.MultiExpElem(bases, exps)
		if err != nil {
			t.Fatal(err)
		}
		if got := mo.FromMont(acc); got.Cmp(want) != 0 {
			t.Fatalf("trial %d: MultiExpElem mismatch", trial)
		}
	}
}

// TestMultiExpEdgeCases pins MultiExpElem's contract on degenerate input:
// the empty product and all-zero exponents yield the image of 1, and
// mismatched lengths, nil operands and negative exponents are refused.
func TestMultiExpEdgeCases(t *testing.T) {
	p, err := RandPrime(rand.Reader, 128)
	if err != nil {
		t.Fatal(err)
	}
	mo, err := NewModulus(p)
	if err != nil {
		t.Fatal(err)
	}
	b := mo.ToMont(big.NewInt(7))
	got, err := mo.MultiExpElem(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !mo.IsOne(got) {
		t.Fatalf("empty MultiExpElem = %v, want 1", mo.FromMont(got))
	}
	if _, err := mo.MultiExpElem([]Elem{b}, nil); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := mo.MultiExpElem([]Elem{nil}, []*big.Int{One}); err == nil {
		t.Fatal("nil base accepted")
	}
	if _, err := mo.MultiExpElem([]Elem{b}, []*big.Int{nil}); err == nil {
		t.Fatal("nil exponent accepted")
	}
	if _, err := mo.MultiExpElem([]Elem{b}, []*big.Int{big.NewInt(-1)}); err == nil {
		t.Fatal("negative exponent accepted")
	}
	got, err = mo.MultiExpElem([]Elem{b}, []*big.Int{big.NewInt(0)})
	if err != nil {
		t.Fatal(err)
	}
	if !mo.IsOne(got) {
		t.Fatalf("b^0 = %v, want 1", mo.FromMont(got))
	}
}

// TestBatchInverse checks Montgomery's trick against per-element
// inversion and proves the O(n) → O(1) inversion-count amortization via
// the package inversion counter.
func TestBatchInverse(t *testing.T) {
	p, err := RandPrime(rand.Reader, 1024)
	if err != nil {
		t.Fatal(err)
	}
	mo, err := NewModulus(p)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	values := make([]*big.Int, n)
	for i := range values {
		if values[i], err = RandScalar(rand.Reader, p); err != nil {
			t.Fatal(err)
		}
	}
	before := InverseCalls()
	inv, err := mo.BatchInverse(values)
	if err != nil {
		t.Fatal(err)
	}
	if got := InverseCalls() - before; got != 1 {
		t.Fatalf("batch inversion of %d elements performed %d extended-GCDs, want exactly 1", n, got)
	}
	for i, v := range values {
		want, err := ModInverse(v, p)
		if err != nil {
			t.Fatal(err)
		}
		if inv[i].Cmp(want) != 0 {
			t.Fatalf("batch inverse [%d] mismatch", i)
		}
	}
	// Non-invertible element: the batch must fail, not silently misreport.
	bad := append(append([]*big.Int(nil), values...), new(big.Int).Set(p))
	if _, err := mo.BatchInverse(bad); err == nil {
		t.Fatal("batch inversion accepted a non-invertible element")
	}
}

func benchModulus(b *testing.B, bits int) (*Modulus, *big.Int, *big.Int) {
	b.Helper()
	p, err := RandPrime(rand.Reader, bits)
	if err != nil {
		b.Fatal(err)
	}
	mo, err := NewModulus(p)
	if err != nil {
		b.Fatal(err)
	}
	base, _ := RandInt(rand.Reader, p)
	exp, _ := RandInt(rand.Reader, new(big.Int).Lsh(One, 160))
	return mo, base, exp
}

// BenchmarkVarBaseExp compares the Montgomery engine's variable-base
// exponentiation against math/big at the paper's sizes (1024-bit modulus,
// 160-bit exponent) — the mont/var-base-exp op of the bench gate.
func BenchmarkVarBaseExp(b *testing.B) {
	mo, base, exp := benchModulus(b, 1024)
	b.Run("big", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			new(big.Int).Exp(base, exp, mo.Int())
		}
	})
	b.Run("mont", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mo.FromMont(mo.ExpElem(mo.ToMont(base), exp))
		}
	})
	b.Run("mont-domain", func(b *testing.B) {
		be := mo.ToMont(base)
		for i := 0; i < b.N; i++ {
			mo.ExpElem(be, exp)
		}
	})
}

// BenchmarkBatchInverse compares n extended-GCDs against Montgomery's
// trick (one extended-GCD plus 3(n-1) multiplications) at the affine
// conversion batch sizes of the bdkey chain.
func BenchmarkBatchInverse(b *testing.B) {
	mo, _, _ := benchModulus(b, 1024)
	const n = 16
	values := make([]*big.Int, n)
	for i := range values {
		values[i], _ = RandScalar(rand.Reader, mo.Int())
	}
	b.Run("per-element", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, v := range values {
				if _, err := ModInverse(v, mo.Int()); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batched", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := mo.BatchInverse(values); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkMontMul(b *testing.B) {
	mo, base, _ := benchModulus(b, 1024)
	x := mo.ToMont(base)
	y := mo.Sqr(x)
	z := make(Elem, mo.Words())
	b.Run("mul", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mo.MulInto(z, x, y)
		}
	})
	b.Run("sqr", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mo.SqrInto(z, x)
		}
	})
	b.Run("big-mulmod", func(b *testing.B) {
		t := new(big.Int)
		for i := 0; i < b.N; i++ {
			t.Mul(base, base)
			t.Mod(t, mo.Int())
		}
	})
}

// TestProductConcurrent drives one shared Modulus's Product from several
// goroutines at once, with lengths that keep growing its correction-
// factor cache, and checks every result against ProductMod.
func TestProductConcurrent(t *testing.T) {
	p, err := RandPrime(rand.Reader, 1024)
	if err != nil {
		t.Fatal(err)
	}
	mo, err := NewModulus(p)
	if err != nil {
		t.Fatal(err)
	}
	values := make([]*big.Int, 64)
	for i := range values {
		if values[i], err = RandInt(rand.Reader, p); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := g; n <= len(values); n += 4 {
				if got, want := mo.Product(values[:n]), ProductMod(values[:n], p); got.Cmp(want) != 0 {
					t.Errorf("goroutine %d: product of %d values mismatch", g, n)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
