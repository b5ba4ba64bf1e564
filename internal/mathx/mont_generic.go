//go:build !amd64 || purego

package mathx

import (
	"math/big"
	"math/bits"
)

// addMulWin16 is the 16-word (1024-bit) row of every Montgomery
// operation, on the pure-Go kernel.
func addMulWin16(z, x []big.Word, y big.Word) big.Word {
	return big.Word(addMulVVW16((*[16]big.Word)(z), (*[16]big.Word)(x), y))
}

// mulAddWWW is one word step of addMulVVW: z + x·y + c over a single
// limb, returning the low word and the outgoing carry. Small enough that
// the compiler inlines it into the unrolled kernel.
func mulAddWWW(xi, y, zi, c uint) (uint, uint) {
	hi, lo := bits.Mul(xi, y)
	lo, cc := bits.Add(lo, c, 0)
	hi += cc
	lo, cc = bits.Add(lo, zi, 0)
	return lo, hi + cc
}

// addMulVVW16 is addMulVVW fully unrolled for a 16-word window:
// fixed-size array pointers let the compiler drop every bounds check and
// loop branch, which is worth ~25% on the CIOS inner product.
func addMulVVW16(z, x *[16]big.Word, y big.Word) uint {
	yy := uint(y)
	var w, c uint
	w, c = mulAddWWW(uint(x[0]), yy, uint(z[0]), c)
	z[0] = big.Word(w)
	w, c = mulAddWWW(uint(x[1]), yy, uint(z[1]), c)
	z[1] = big.Word(w)
	w, c = mulAddWWW(uint(x[2]), yy, uint(z[2]), c)
	z[2] = big.Word(w)
	w, c = mulAddWWW(uint(x[3]), yy, uint(z[3]), c)
	z[3] = big.Word(w)
	w, c = mulAddWWW(uint(x[4]), yy, uint(z[4]), c)
	z[4] = big.Word(w)
	w, c = mulAddWWW(uint(x[5]), yy, uint(z[5]), c)
	z[5] = big.Word(w)
	w, c = mulAddWWW(uint(x[6]), yy, uint(z[6]), c)
	z[6] = big.Word(w)
	w, c = mulAddWWW(uint(x[7]), yy, uint(z[7]), c)
	z[7] = big.Word(w)
	w, c = mulAddWWW(uint(x[8]), yy, uint(z[8]), c)
	z[8] = big.Word(w)
	w, c = mulAddWWW(uint(x[9]), yy, uint(z[9]), c)
	z[9] = big.Word(w)
	w, c = mulAddWWW(uint(x[10]), yy, uint(z[10]), c)
	z[10] = big.Word(w)
	w, c = mulAddWWW(uint(x[11]), yy, uint(z[11]), c)
	z[11] = big.Word(w)
	w, c = mulAddWWW(uint(x[12]), yy, uint(z[12]), c)
	z[12] = big.Word(w)
	w, c = mulAddWWW(uint(x[13]), yy, uint(z[13]), c)
	z[13] = big.Word(w)
	w, c = mulAddWWW(uint(x[14]), yy, uint(z[14]), c)
	z[14] = big.Word(w)
	w, c = mulAddWWW(uint(x[15]), yy, uint(z[15]), c)
	z[15] = big.Word(w)
	return c
}
