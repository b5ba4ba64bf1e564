package mathx

import (
	"errors"
	"fmt"
	"math/big"
	"math/bits"
	"sync"
	"sync/atomic"
)

// This file is the fixed-width Montgomery-form modular arithmetic engine
// under every 1024-bit keying operation: round 2's edge powers and the
// dynamic flows' DH powers, the Z/T/response products, the
// Burmester-Desmedt key assembly (equation 3), the GQ respond/verify
// folds and the fixed-base tables. A Modulus precomputes everything expensive about
// one modulus — the word count, -m^{-1} mod 2^W and R² mod m — exactly
// once; Elem values stay in the Montgomery domain across whole
// verification pipelines, converting on entry and leaving only at wire
// boundaries. Every operation is mathematically transparent: results are
// bit-identical to the math/big computation, so transcripts, keys and
// operation meters are unaffected by which engine ran.
//
// The core loops are CIOS (coarsely integrated operand scanning) with a
// dedicated squaring that halves the partial-product count. Their inner
// row, z += x·y over 16 words (one 1024-bit limb vector), runs on an
// assembly kernel on amd64 — ADCX/ADOX/MULX when the CPU has ADX and
// BMI2, MULQ otherwise — and on unrolled pure Go over math/bits under the
// purego build tag or on any other architecture (mont_amd64.s,
// mont_generic.go). Every width other than 16 and 32 words runs the
// generic Go row.

// maxModulusWords bounds the fixed scratch buffers of the CIOS loops
// (64 words = 4096 bits on 64-bit platforms), far above the 1024/2048-bit
// moduli of the protocols.
const maxModulusWords = 64

// inverseCalls counts modular inversions performed through this package
// (ModInverse and the single inversion inside each batch-inversion call).
// Tests use the counter to prove the O(n) → O(1) inversion amortization
// of Montgomery's trick; the atomic add is negligible next to the
// extended-GCD it counts.
var inverseCalls atomic.Uint64

// InverseCalls returns the number of modular inversions performed so far
// process-wide.
func InverseCalls() uint64 { return inverseCalls.Load() }

// Elem is one residue in the Montgomery domain of a Modulus: a fixed-width
// little-endian limb vector of exactly the modulus' word count, holding
// v·R mod m. Elems are only meaningful with the Modulus that created them.
type Elem []big.Word

// Modulus is the precomputed context for Montgomery arithmetic modulo one
// odd m: the limb image of m, the word count k, n0 = -m^{-1} mod 2^W and
// R² mod m (R = 2^(W·k)). Construction costs one big.Int division; every
// subsequent operation on reduced inputs is division-free. Apart from
// Product's lock-guarded cache of correction factors, a Modulus is
// immutable after construction; it is safe for concurrent use.
type Modulus struct {
	m     *big.Int
	words []big.Word // little-endian limbs of m, length k
	k     int
	n0    big.Word // -m^{-1} mod 2^W
	r2    Elem     // R² mod m  (ToMont multiplier)
	one   Elem     // R mod m   (Montgomery image of 1)

	// rPows caches R^j mod m for j < len(rPows), the correction factors
	// of Product (grown on demand up to maxCachedRPow).
	rMu   sync.Mutex
	rPows []Elem

	// products, when non-nil, counts Montgomery products (montMul and
	// montSqr calls); tests set it on a private Modulus.
	products *int
}

// NewModulus precomputes a Montgomery context for an odd modulus > 1.
func NewModulus(m *big.Int) (*Modulus, error) {
	if m == nil || m.Sign() <= 0 {
		return nil, errors.New("mathx: Montgomery modulus must be positive")
	}
	if m.Bit(0) == 0 {
		return nil, errors.New("mathx: Montgomery modulus must be odd")
	}
	if m.Cmp(One) == 0 {
		return nil, errors.New("mathx: Montgomery modulus must be > 1")
	}
	limbs := m.Bits()
	k := len(limbs)
	if k > maxModulusWords {
		return nil, fmt.Errorf("mathx: modulus of %d words exceeds the %d-word Montgomery engine", k, maxModulusWords)
	}
	mo := &Modulus{
		m:     new(big.Int).Set(m),
		words: append([]big.Word(nil), limbs...),
		k:     k,
	}
	// n0 = -m^{-1} mod 2^W by Newton iteration: each step doubles the
	// number of correct low bits, and odd m guarantees invertibility.
	inv := uint(mo.words[0]) // 1 correct bit
	for i := 0; i < 6; i++ {
		inv *= 2 - uint(mo.words[0])*inv
	}
	mo.n0 = big.Word(-inv)
	// R mod m and R² mod m via one-time big.Int reductions.
	r := new(big.Int).Lsh(One, uint(k*bits.UintSize))
	mo.one = mo.elemFromBig(new(big.Int).Mod(r, m))
	mo.r2 = mo.elemFromBig(new(big.Int).Mod(new(big.Int).Mul(r, r), m))
	return mo, nil
}

// Int returns the modulus as a big.Int. Callers must not mutate it.
func (mo *Modulus) Int() *big.Int { return mo.m }

// Words returns the modulus' limb count (the fixed width of its Elems).
func (mo *Modulus) Words() int { return mo.k }

// elemFromBig widens the little-endian limbs of a canonical residue
// (0 <= v < m) to the fixed width. It does NOT convert to the Montgomery
// domain.
func (mo *Modulus) elemFromBig(v *big.Int) Elem {
	e := make(Elem, mo.k)
	copy(e, v.Bits())
	return e
}

// bigFromElem reads a fixed-width limb vector back into a big.Int.
func bigFromElem(e Elem) *big.Int {
	// Trim high zero limbs; big.Int.SetBits requires a normalized slice.
	i := len(e)
	for i > 0 && e[i-1] == 0 {
		i--
	}
	return new(big.Int).SetBits(append([]big.Word(nil), e[:i]...))
}

// ToMont converts v (any integer; reduced mod m first) into the Montgomery
// domain: one reduction plus one Montgomery multiplication by R².
func (mo *Modulus) ToMont(v *big.Int) Elem {
	red := new(big.Int).Mod(v, mo.m)
	z := make(Elem, mo.k)
	mo.montMul(z, mo.elemFromBig(red), mo.r2)
	return z
}

// FromMont converts an Elem back to a canonical big.Int residue in [0, m):
// one Montgomery multiplication by 1.
func (mo *Modulus) FromMont(e Elem) *big.Int {
	var zbuf, obuf [maxModulusWords]big.Word
	z, oneLimb := Elem(zbuf[:mo.k]), Elem(obuf[:mo.k])
	oneLimb[0] = 1
	mo.montMul(z, e, oneLimb)
	return bigFromElem(z)
}

// MontOne returns the Montgomery image of 1 (a fresh copy).
func (mo *Modulus) MontOne() Elem {
	return append(Elem(nil), mo.one...)
}

// Mul returns x·y in the Montgomery domain.
func (mo *Modulus) Mul(x, y Elem) Elem {
	z := make(Elem, mo.k)
	mo.montMul(z, x, y)
	return z
}

// MulInto computes z = x·y in the Montgomery domain; z may alias x or y.
func (mo *Modulus) MulInto(z, x, y Elem) { mo.montMul(z, x, y) }

// Sqr returns x² in the Montgomery domain.
func (mo *Modulus) Sqr(x Elem) Elem {
	z := make(Elem, mo.k)
	mo.SqrInto(z, x)
	return z
}

// SqrInto computes z = x² in the Montgomery domain; z may alias x.
// At the 16/32-word sizes the fully unrolled CIOS multiply beats the
// generic separated squaring, so those widths square through montMul.
func (mo *Modulus) SqrInto(z, x Elem) {
	if mo.k == 16 || mo.k == 32 {
		mo.montMul(z, x, x)
		return
	}
	mo.montSqr(z, x)
}

// addMulVVW computes z += x·y and returns the outgoing carry, the inner
// kernel of every Montgomery operation. Requires len(x) >= len(z); the
// range-over-z form lets the compiler eliminate the bounds checks.
func addMulVVW(z, x []big.Word, y big.Word) big.Word {
	yy := uint(y)
	x = x[:len(z)]
	var c uint
	for i, zi := range z {
		hi, lo := bits.Mul(uint(x[i]), yy)
		lo, cc := bits.Add(lo, c, 0)
		hi += cc
		lo, cc = bits.Add(lo, uint(zi), 0)
		z[i] = big.Word(lo)
		c = hi + cc
	}
	return big.Word(c)
}

// addMulWin is addMulVVW over a window of exactly len(z) words,
// dispatching 16- and 32-word windows (1024/2048-bit moduli) to the
// 16-word row kernel (addMulWin16: assembly on amd64, unrolled Go
// elsewhere). A 32-word row runs as two 16-word halves, the low half's
// carry rippling into the high half. Requires len(x) >= len(z).
func addMulWin(z, x []big.Word, y big.Word) big.Word {
	switch len(z) {
	case 16:
		return addMulWin16(z, x, y)
	case 32:
		c := addMulWin16(z[:16], x[:16], y)
		hi := addMulWin16(z[16:32], x[16:32], y)
		return hi + addVW(z[16:32], c)
	}
	return addMulVVW(z, x, y)
}

// subVV computes z = x - y and returns the outgoing borrow; the slices
// must have equal length.
func subVV(z, x, y []big.Word) big.Word {
	y = y[:len(z)]
	x = x[:len(z)]
	var b uint
	for i := range z {
		d, bb := bits.Sub(uint(x[i]), uint(y[i]), b)
		z[i] = big.Word(d)
		b = bb
	}
	return big.Word(b)
}

// addVW computes z += y for a single incoming word and returns the
// outgoing carry.
func addVW(z []big.Word, y big.Word) big.Word {
	c := uint(y)
	for i := range z {
		if c == 0 {
			return 0
		}
		s, cc := bits.Add(uint(z[i]), c, 0)
		z[i] = big.Word(s)
		c = cc
	}
	return big.Word(c)
}

// montMul computes z = x·y·R^{-1} mod m with the CIOS method over a
// sliding 2k-word accumulator (the math/big montgomery shape). z may
// alias x or y: the product accumulates in a stack scratch buffer and is
// copied out after the final conditional subtraction.
func (mo *Modulus) montMul(z, x, y Elem) {
	if mo.products != nil {
		*mo.products++
	}
	if mo.k == 16 {
		mo.montMul16(z, x, y)
		return
	}
	k := mo.k
	n := mo.words
	var tbuf [2 * maxModulusWords]big.Word
	t := tbuf[:2*k]
	for i := range t {
		t[i] = 0
	}
	var c big.Word
	for i := 0; i < k; i++ {
		win := t[i : i+k]
		c2 := addMulWin(win, x, y[i])
		q := t[i] * mo.n0
		c3 := addMulWin(win, n, q)
		cx := c + c2
		cy := cx + c3
		t[i+k] = cy
		if cx < c2 || cy < c3 {
			c = 1
		} else {
			c = 0
		}
	}
	// The result t[k:2k] with overflow bit c is < 2m: one conditional
	// subtraction brings it into [0, m).
	if c != 0 || geWords(t[k:], n) {
		subVV(z, t[k:], n)
	} else {
		copy(z, t[k:])
	}
}

// montMul16 is montMul at the 1024-bit keying width: a 32-word stack
// accumulator (no 128-word scratch to clear) and the row kernel called
// directly, with no width dispatch per row.
func (mo *Modulus) montMul16(z, x, y Elem) {
	var t [32]big.Word
	n := mo.words[:16]
	x, y = x[:16], y[:16]
	var c big.Word
	for i, yi := range y {
		win := t[i : i+16]
		c2 := addMulWin16(win, x, yi)
		c3 := addMulWin16(win, n, t[i]*mo.n0)
		cx := c + c2
		cy := cx + c3
		t[i+16] = cy
		if cx < c2 || cy < c3 {
			c = 1
		} else {
			c = 0
		}
	}
	if c != 0 || geWords(t[16:], n) {
		subVV(z, t[16:], n)
	} else {
		copy(z, t[16:])
	}
}

// montSqr computes z = x²·R^{-1} mod m: the off-diagonal partial products
// are computed once and doubled (k(k-1)/2 multiplies instead of k²), the
// diagonal added, then a separated Montgomery reduction pass runs over the
// double-width product. z may alias x.
func (mo *Modulus) montSqr(z, x Elem) {
	if mo.products != nil {
		*mo.products++
	}
	k := mo.k
	n := mo.words
	var tbuf [2*maxModulusWords + 1]big.Word
	t := tbuf[:2*k+1]
	for i := range t {
		t[i] = 0
	}
	// Off-diagonal products x[i]·x[j], j > i.
	for i := 0; i < k-1; i++ {
		t[i+k] = addMulVVW(t[2*i+1:i+k], x[i+1:], x[i])
	}
	// Double the cross terms: t <<= 1 over the 2k low words.
	var carry uint
	for i := 0; i < 2*k; i++ {
		w := uint(t[i])
		t[i] = big.Word(w<<1 | carry)
		carry = w >> (bits.UintSize - 1)
	}
	t[2*k] = big.Word(carry)
	// Add the diagonal x[i]² at positions 2i, 2i+1.
	var c uint
	for i := 0; i < k; i++ {
		hi, lo := bits.Mul(uint(x[i]), uint(x[i]))
		s, cc := bits.Add(uint(t[2*i]), lo, c)
		t[2*i] = big.Word(s)
		s, cc = bits.Add(uint(t[2*i+1]), hi, cc)
		t[2*i+1] = big.Word(s)
		c = cc
	}
	t[2*k] += big.Word(c) // cannot overflow: x² fits 2k words exactly
	// Separated Montgomery reduction over the double-width product.
	for i := 0; i < k; i++ {
		q := t[i] * mo.n0
		c := addMulWin(t[i:i+k], n, q)
		// Ripple the window carry into the high words (bounded by the
		// 2k+1-word value: x² + m·Σq_i·2^{Wi} < R² + R·m < 2·R²).
		for j := i + k; c != 0; j++ {
			s, cc := bits.Add(uint(t[j]), uint(c), 0)
			t[j] = big.Word(s)
			c = big.Word(cc)
		}
	}
	// Result occupies t[k .. 2k] with t[2k] the overflow word.
	if t[2*k] != 0 || geWords(t[k:2*k], n) {
		subVV(z, t[k:2*k], n)
	} else {
		copy(z, t[k:2*k])
	}
}

// geWords reports whether a >= b for equal-length little-endian limbs.
func geWords(a, b []big.Word) bool {
	for i := len(a) - 1; i >= 0; i-- {
		if a[i] != b[i] {
			return a[i] > b[i]
		}
	}
	return true
}

// expWindow picks the sliding-window width for an exponent size.
func expWindow(bits int) int {
	switch {
	case bits <= 8:
		return 1
	case bits <= 48:
		return 3
	case bits <= 160:
		return 4
	case bits <= 768:
		return 5
	default:
		return 6
	}
}

// ladderWindow is the fixed window width of ExpElem: 4-bit digits over a
// 16-entry table, the shape of math/big's expNNMontgomery.
const ladderWindow = 4

// ExpElem computes base^e in the Montgomery domain for a non-negative
// exponent with a fixed-window ladder: a table of base^0 … base^15, then
// for every 4-bit digit of e (most significant word first, every word
// read in full) four squarings and one multiplication by the digit's
// table entry, which is selected by scanning the whole table under a
// mask. The square/multiply sequence and the memory it touches therefore
// depend only on the exponent's word length, never on its bits, so a
// secret r_i power is no less regular than big.Int.Exp's. e = 0 yields
// the Montgomery image of 1. Public exponents that want the cheaper
// variable-time chain go through MultiExpElem.
func (mo *Modulus) ExpElem(base Elem, e *big.Int) Elem {
	// The ladder's only decisions on e are its sign and its word length,
	// both read once here: callers treat them as public.
	sign := e.Sign()
	if sign < 0 {
		panic("mathx: ExpElem needs a non-negative exponent")
	}
	nw := (e.BitLen() + bits.UintSize - 1) / bits.UintSize
	acc := mo.MontOne()
	if nw == 0 {
		return acc
	}
	k := mo.k
	const entries = 1 << ladderWindow
	flat := make([]big.Word, (entries+1)*k)
	table := make([]Elem, entries)
	for j := range table {
		table[j] = flat[j*k : (j+1)*k : (j+1)*k]
	}
	sel := Elem(flat[entries*k:])
	copy(table[0], mo.one)
	copy(table[1], base)
	for j := 2; j < entries; j++ {
		mo.montMul(table[j], table[j-1], base)
	}
	words := e.Bits()
	for i := nw - 1; i >= 0; i-- {
		w := uint(words[i])
		for j := 0; j < bits.UintSize; j += ladderWindow {
			if i != nw-1 || j != 0 {
				for s := 0; s < ladderWindow; s++ {
					mo.SqrInto(acc, acc)
				}
			}
			selectElem(sel, table, w>>(bits.UintSize-ladderWindow))
			mo.montMul(acc, acc, sel)
			w <<= ladderWindow
		}
	}
	return acc
}

// selectElem copies table[idx] into dst in constant time: every entry is
// read and blended under a mask that is all ones only at idx, so neither
// a branch nor a memory address depends on idx.
func selectElem(dst Elem, table []Elem, idx uint) {
	for i := range dst {
		dst[i] = 0
	}
	for j, entry := range table {
		d := uint(j) ^ idx
		// mask = all ones iff d == 0: (d | -d) has its top bit set
		// exactly when d != 0.
		mask := big.Word(((d|-d)>>(bits.UintSize-1))^1) * ^big.Word(0)
		for i := range dst {
			dst[i] |= entry[i] & mask
		}
	}
}

// MultiExpElem computes Π bases[i]^exps[i] in the Montgomery domain with
// one interleaved squaring chain shared by every base (windowed Shamir
// trick): max-bits squarings total plus, per base, a sliding window's
// worth of multiplications (~bits/(w+1) instead of one per set bit) over
// its precomputed odd powers. Exponents must be non-negative. The win
// over per-base exponentiation is largest when exponents are short — the
// BD key assembly — or when many bases share one verification equation.
func (mo *Modulus) MultiExpElem(bases []Elem, exps []*big.Int) (Elem, error) {
	if len(bases) != len(exps) {
		return nil, errors.New("mathx: MultiExpElem bases/exps length mismatch")
	}
	maxBits := 0
	for i, e := range exps {
		if e == nil || bases[i] == nil {
			return nil, errors.New("mathx: MultiExpElem nil operand")
		}
		if e.Sign() < 0 {
			return nil, errors.New("mathx: MultiExpElem needs non-negative exponents")
		}
		if bl := e.BitLen(); bl > maxBits {
			maxBits = bl
		}
	}
	if maxBits == 0 {
		return mo.MontOne(), nil
	}
	// Decompose every exponent into left-to-right sliding windows of odd
	// digits and bucket the pending multiplications by each window's low
	// bit; the merge pass below then walks one squaring chain and folds in
	// every base's window where it lands.
	type pendMul struct {
		base  int
		digit uint // odd window digit; table index is digit>>1
	}
	pend := make([][]pendMul, maxBits)
	tables := make([][]Elem, len(bases))
	for j, e := range exps {
		eb := e.BitLen()
		if eb == 0 {
			continue
		}
		w := expWindow(eb)
		maxDigit := uint(0)
		for i := eb - 1; i >= 0; {
			if e.Bit(i) == 0 {
				i--
				continue
			}
			l := i - w + 1
			if l < 0 {
				l = 0
			}
			for e.Bit(l) == 0 {
				l++
			}
			var digit uint
			for t := i; t >= l; t-- {
				digit = digit<<1 | uint(e.Bit(t))
			}
			if digit > maxDigit {
				maxDigit = digit
			}
			pend[l] = append(pend[l], pendMul{base: j, digit: digit})
			i = l - 1
		}
		// Odd powers base, base^3, ... up to the largest digit this
		// exponent actually uses (entries are read-only; index 0 aliases
		// the caller's element).
		tab := make([]Elem, maxDigit/2+1)
		tab[0] = bases[j]
		if len(tab) > 1 {
			b2 := mo.Sqr(bases[j])
			for i := 1; i < len(tab); i++ {
				tab[i] = mo.Mul(tab[i-1], b2)
			}
		}
		tables[j] = tab
	}
	var acc Elem
	for i := maxBits - 1; i >= 0; i-- {
		if acc != nil {
			mo.SqrInto(acc, acc)
		}
		for _, pm := range pend[i] {
			if acc == nil {
				acc = append(Elem(nil), tables[pm.base][pm.digit>>1]...)
			} else {
				mo.MulInto(acc, acc, tables[pm.base][pm.digit>>1])
			}
		}
	}
	return acc, nil
}

// IsOne reports whether e is the Montgomery image of 1.
func (mo *Modulus) IsOne(e Elem) bool {
	for i := range e {
		if e[i] != mo.one[i] {
			return false
		}
	}
	return len(e) == mo.k
}

// ProductElem folds Elems into their Montgomery-domain product. An empty
// slice yields the image of 1 (the empty-product convention of the batch
// verification equations).
func (mo *Modulus) ProductElem(es []Elem) Elem {
	acc := mo.MontOne()
	for _, e := range es {
		mo.MulInto(acc, acc, e)
	}
	return acc
}

// Product returns Π values mod m, bit-identical to ProductMod, without a
// single division for canonical inputs. The values' plain limbs go
// straight into n−1 Montgomery multiplications, which leaves
// Π v_i · R^{-(n-1)}; one more multiplication by the cached R^n restores
// the product. Inputs outside [0, m) are reduced on entry. An empty
// slice yields 1 (the empty-product convention of the batch
// verification equations).
func (mo *Modulus) Product(values []*big.Int) *big.Int {
	if len(values) == 0 {
		return big.NewInt(1)
	}
	var abuf, vbuf [maxModulusWords]big.Word
	acc, v := Elem(abuf[:mo.k]), Elem(vbuf[:mo.k])
	mo.limbsInto(acc, values[0])
	for _, x := range values[1:] {
		mo.limbsInto(v, x)
		mo.montMul(acc, acc, v)
	}
	mo.montMul(acc, acc, mo.rPower(len(values)))
	return bigFromElem(acc)
}

// limbsInto writes the plain (not Montgomery) limbs of v mod m into dst,
// reducing only when v lies outside [0, m).
func (mo *Modulus) limbsInto(dst Elem, v *big.Int) {
	if v.Sign() < 0 || v.Cmp(mo.m) >= 0 {
		v = new(big.Int).Mod(v, mo.m)
	}
	n := copy(dst, v.Bits())
	for i := n; i < len(dst); i++ {
		dst[i] = 0
	}
}

// maxCachedRPow bounds the correction-factor cache of Product; longer
// products derive R^n by exponentiation instead.
const maxCachedRPow = 1024

// rPower returns R^n mod m in plain limbs (equivalently the Montgomery
// image of R^{n-1}), for n >= 1. Each cached power is one Montgomery
// multiplication by R² from the previous one.
func (mo *Modulus) rPower(n int) Elem {
	if n > maxCachedRPow {
		// r2 is the Montgomery image of R; the exponent is public.
		rn, _ := mo.MultiExpElem([]Elem{mo.r2}, []*big.Int{big.NewInt(int64(n - 1))})
		return rn
	}
	mo.rMu.Lock()
	defer mo.rMu.Unlock()
	if len(mo.rPows) == 0 {
		mo.rPows = append(mo.rPows, nil, mo.one, mo.r2) // R^0 is never used
	}
	for len(mo.rPows) <= n {
		next := make(Elem, mo.k)
		mo.montMul(next, mo.rPows[len(mo.rPows)-1], mo.r2)
		mo.rPows = append(mo.rPows, next)
	}
	return mo.rPows[n]
}

// BatchInverseElem inverts every Elem with Montgomery's trick: prefix
// products, ONE modular inversion, then a backward sweep — 3(n-1)
// multiplications plus a single extended-GCD, against n extended-GCDs for
// per-element inversion. Fails if any input (equivalently, the product) is
// not invertible.
func (mo *Modulus) BatchInverseElem(es []Elem) ([]Elem, error) {
	n := len(es)
	if n == 0 {
		return nil, nil
	}
	// prefix[i] = e_0 · ... · e_i  (Montgomery domain).
	prefix := make([]Elem, n)
	prefix[0] = append(Elem(nil), es[0]...)
	for i := 1; i < n; i++ {
		prefix[i] = mo.Mul(prefix[i-1], es[i])
	}
	// One inversion of the total product.
	totalInv, err := ModInverse(mo.FromMont(prefix[n-1]), mo.m)
	if err != nil {
		return nil, fmt.Errorf("mathx: batch inversion: %w", err)
	}
	acc := mo.ToMont(totalInv) // (e_0···e_{n-1})^{-1} in the domain
	out := make([]Elem, n)
	for i := n - 1; i > 0; i-- {
		out[i] = mo.Mul(acc, prefix[i-1])
		mo.MulInto(acc, acc, es[i])
	}
	out[0] = acc
	return out, nil
}

// BatchInverse inverts every value modulo m with a single extended-GCD
// (Montgomery's trick over big.Int operands). Bit-identical to calling
// ModInverse per element; fails if any element is not invertible.
func (mo *Modulus) BatchInverse(values []*big.Int) ([]*big.Int, error) {
	es := make([]Elem, len(values))
	for i, v := range values {
		if v == nil {
			return nil, errors.New("mathx: BatchInverse nil value")
		}
		es[i] = mo.ToMont(v)
	}
	inv, err := mo.BatchInverseElem(es)
	if err != nil {
		return nil, err
	}
	out := make([]*big.Int, len(inv))
	for i, e := range inv {
		out[i] = mo.FromMont(e)
	}
	return out, nil
}
