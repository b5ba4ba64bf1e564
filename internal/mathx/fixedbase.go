package mathx

import (
	"errors"
	"math/big"
)

// This file is the bottom of the crypto acceleration layer: windowed
// fixed-base precomputation (the BGMW radix-2^w method) over the
// Montgomery engine. Everything here is mathematically transparent — the
// table returns bit-identical values to the naive exponentiation, so
// operation meters and protocol transcripts are unaffected by whether a
// table is attached.

// DefaultWindow is the radix width used by Precompute helpers: 2^6 digits
// balance table size (~ceil(bits/6)·63 entries) against the number of
// modular multiplications per exponentiation (ceil(bits/6) - 1).
const DefaultWindow = 6

// FixedBaseTable holds the precomputed powers of one long-lived base —
// a group generator or an identity key — enabling exponentiation in
// ~ceil(maxBits/window) Montgomery multiplications with NO squarings:
//
//	entry(i, j) = base^(j << (window·i)) mod m,  1 <= j < 2^window
//
// so base^e = Π_i entry(i, digit_i(e)) where digit_i is the i-th
// radix-2^w digit of e. Entries are stored once, as Montgomery-domain
// limbs in one flat slab (no big.Int rows), built by chains of Montgomery
// multiplications and walked without leaving the domain. The modulus
// must be odd (every modulus in the protocols is). A table is immutable
// after construction and safe for concurrent use.
type FixedBaseTable struct {
	base    *big.Int // base mod m, for the big.Int.Exp fallback
	mo      *Modulus
	window  uint
	maxBits int
	// slab holds the entries row by row, 2^window − 1 entries of mo.k
	// words per row (digit 0 needs no entry).
	slab []big.Word
}

// NewFixedBaseTable precomputes the powers of base modulo an odd mod for
// exponents up to maxBits bits using radix-2^window digits.
func NewFixedBaseTable(base, mod *big.Int, maxBits int, window uint) (*FixedBaseTable, error) {
	if mod == nil || mod.Cmp(One) <= 0 {
		return nil, errors.New("mathx: fixed-base modulus must be > 1")
	}
	if base == nil {
		return nil, errors.New("mathx: fixed-base base must be non-nil")
	}
	if maxBits < 1 {
		return nil, errors.New("mathx: fixed-base maxBits must be >= 1")
	}
	if window < 1 || window > 12 {
		return nil, errors.New("mathx: fixed-base window must be in [1, 12]")
	}
	mo, err := NewModulus(mod)
	if err != nil {
		return nil, err
	}
	t := &FixedBaseTable{
		base:    new(big.Int).Mod(base, mod),
		mo:      mo,
		window:  window,
		maxBits: maxBits,
	}
	k := mo.k
	perRow := 1<<window - 1
	nrows := (maxBits + int(window) - 1) / int(window)
	t.slab = make([]big.Word, nrows*perRow*k)
	cur := mo.ToMont(t.base) // base^(2^(window·i)) for the current row
	for i := 0; i < nrows; i++ {
		copy(t.entry(i, 1), cur)
		for j := 2; j <= perRow; j++ {
			mo.montMul(t.entry(i, uint(j)), t.entry(i, uint(j-1)), cur)
		}
		mo.montMul(cur, t.entry(i, uint(perRow)), cur)
	}
	return t, nil
}

// entry returns the Montgomery image of base^(d << (window·i)), d >= 1.
func (t *FixedBaseTable) entry(i int, d uint) Elem {
	k := t.mo.k
	off := (i*(1<<t.window-1) + int(d) - 1) * k
	return t.slab[off : off+k : off+k]
}

// MaxBits returns the largest exponent bit length the table covers.
func (t *FixedBaseTable) MaxBits() int { return t.maxBits }

// Window returns the radix width in bits.
func (t *FixedBaseTable) Window() int { return int(t.window) }

// Covers reports whether the table path applies to exponent e
// (non-negative and within the precomputed bit range).
func (t *FixedBaseTable) Covers(e *big.Int) bool {
	return e != nil && e.Sign() >= 0 && e.BitLen() <= t.maxBits
}

// WindowDigit extracts the i-th radix-2^w digit of e — the shared digit
// decomposition of every fixed-base table in the repository (this
// package's FixedBaseTable plus the point tables of internal/ec and
// internal/pairing, whose accumulation strategies differ but whose digit
// logic must stay in lockstep).
func WindowDigit(e *big.Int, i, w int) uint {
	var d uint
	for b := 0; b < w; b++ {
		d |= e.Bit(i*w+b) << b
	}
	return d
}

// Exp returns base^e mod m. Covered exponents walk the table in the
// Montgomery domain (one multiplication per non-zero digit, one
// conversion out); anything else — negative or oversized — falls back to
// (*big.Int).Exp with its exact semantics, including the nil result for
// a negative exponent of a non-invertible base. Results are bit-identical
// to the naive computation.
func (t *FixedBaseTable) Exp(e *big.Int) *big.Int {
	if !t.Covers(e) {
		return new(big.Int).Exp(t.base, e, t.mo.m)
	}
	var abuf [maxModulusWords]big.Word
	acc := Elem(abuf[:t.mo.k])
	copy(acc, t.mo.one)
	w := int(t.window)
	bits := e.BitLen()
	for i := 0; i*w < bits; i++ {
		if d := WindowDigit(e, i, w); d != 0 {
			t.mo.montMul(acc, acc, t.entry(i, d))
		}
	}
	return t.mo.FromMont(acc)
}
