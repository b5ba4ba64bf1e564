package mathx

import (
	"errors"
	"math/big"
	"sync"
)

// This file is the bottom of the crypto acceleration layer: windowed
// fixed-base precomputation (the BGMW radix-2^w method), simultaneous
// multi-exponentiation (the generalised Shamir trick), and chunked
// modular products for worker pools. Everything here is mathematically
// transparent — accelerated paths return bit-identical values to their
// naive counterparts, so operation meters and protocol transcripts are
// unaffected by whether a table is attached.

// DefaultWindow is the radix width used by Precompute helpers: 2^6 digits
// balance table size (~ceil(bits/6)·63 entries) against the number of
// modular multiplications per exponentiation (ceil(bits/6) - 1).
const DefaultWindow = 6

// FixedBaseTable holds the precomputed powers of one long-lived base —
// a group generator or an identity key — enabling exponentiation in
// ~ceil(maxBits/window) modular multiplications with NO squarings:
//
//	rows[i][j] = base^(j << (window·i)) mod m
//
// so base^e = Π_i rows[i][digit_i(e)] where digit_i is the i-th radix-2^w
// digit of e. A table is immutable after construction and safe for
// concurrent use.
type FixedBaseTable struct {
	base, mod *big.Int
	window    uint
	maxBits   int
	rows      [][]*big.Int
}

// NewFixedBaseTable precomputes the powers of base modulo mod for
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
	t := &FixedBaseTable{
		base:    new(big.Int).Mod(base, mod),
		mod:     mod,
		window:  window,
		maxBits: maxBits,
	}
	nrows := (maxBits + int(window) - 1) / int(window)
	cur := new(big.Int).Set(t.base) // base^(2^(window·i)) for the current row
	t.rows = make([][]*big.Int, nrows)
	for i := 0; i < nrows; i++ {
		row := make([]*big.Int, 1<<window)
		row[0] = big.NewInt(1)
		for j := 1; j < 1<<window; j++ {
			row[j] = new(big.Int).Mul(row[j-1], cur)
			row[j].Mod(row[j], mod)
		}
		t.rows[i] = row
		next := new(big.Int).Mul(row[1<<window-1], cur)
		cur = next.Mod(next, mod)
	}
	return t, nil
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

// Exp returns base^e mod m. Covered exponents use the table (one modular
// multiplication per non-zero digit); anything else — negative or
// oversized — falls back to (*big.Int).Exp with its exact semantics,
// including the nil result for a negative exponent of a non-invertible
// base. Results are bit-identical to the naive computation.
func (t *FixedBaseTable) Exp(e *big.Int) *big.Int {
	if !t.Covers(e) {
		return new(big.Int).Exp(t.base, e, t.mod)
	}
	acc := big.NewInt(1)
	w := int(t.window)
	bits := e.BitLen()
	for i := 0; i*w < bits; i++ {
		if d := WindowDigit(e, i, w); d != 0 {
			acc.Mul(acc, t.rows[i][d])
			acc.Mod(acc, t.mod)
		}
	}
	return acc
}

// productParallelThreshold is the slice length below which chunking a
// modular product across workers costs more than it saves.
const productParallelThreshold = 32

// ProductModParallel is ProductMod with the partial products computed on
// up to `workers` goroutines. Modular multiplication is associative and
// commutative, so the result is bit-identical to the serial product;
// workers <= 1 (or a short slice) runs the exact serial path.
func ProductModParallel(values []*big.Int, m *big.Int, workers int) *big.Int {
	if workers <= 1 || len(values) < productParallelThreshold {
		return ProductMod(values, m)
	}
	if workers > len(values)/(productParallelThreshold/2) {
		workers = len(values) / (productParallelThreshold / 2)
	}
	chunk := (len(values) + workers - 1) / workers
	chunks := (len(values) + chunk - 1) / chunk
	partials := make([]*big.Int, chunks)
	var wg sync.WaitGroup
	for slot := 0; slot < chunks; slot++ {
		lo := slot * chunk
		hi := lo + chunk
		if hi > len(values) {
			hi = len(values)
		}
		wg.Add(1)
		go func(slot, lo, hi int) {
			defer wg.Done()
			partials[slot] = ProductMod(values[lo:hi], m)
		}(slot, lo, hi)
	}
	wg.Wait()
	return ProductMod(partials, m)
}
