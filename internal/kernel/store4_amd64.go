package kernel

import "math"

// useVector reports whether a float64 row's last four-column chunk runs
// store4Vector and the row reductions run maxExclVector and
// markAtLeastVector: the CPU has AVX and the OS saves the YMM
// registers. It is read once, at package init.
var useVector = hasAVX()

// hasAVX checks CPUID leaf 1 for AVX and OSXSAVE, then XCR0 for the
// XMM and YMM state the OS saves on a context switch.
func hasAVX() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if cpuid1ECX()&(osxsave|avx) != osxsave|avx {
		return false
	}
	const xmm, ymm = 1 << 1, 1 << 2
	return xgetbv0()&(xmm|ymm) == xmm|ymm
}

// cpuid1ECX returns ECX of CPUID leaf 1.
func cpuid1ECX() uint32

// xgetbv0 returns the low half of XCR0. Call it only when CPUID reports
// OSXSAVE.
func xgetbv0() uint32

// store4AVX runs store4's sum and store on the first len(acc)&^3
// points, four per instruction. It returns the largest value stored in
// each of the four lanes (at the points j ≡ lane mod 4) and whether any
// stored value is invalid (NaN, negative or ±Inf). Every slice must hold
// at least len(acc) values.
//
//go:noescape
func store4AVX(dst, acc, x0, x1, x2, x3 []float64, w0, w1, w2, w3 float64) (top [4]float64, bad bool)

// store4Vector is store4 for float64 storage with the points in groups
// of four run by store4AVX and the last len(acc)%4 by store4. Each lane
// does store4's scalar operations — one rounded multiply and one rounded
// add per column, in the same order, no fused multiply-add — so every
// stored bit is the same, a NaN's payload aside (which operand's payload
// survives depends on the operand order the compiler picks for store4).
// So is the (best, arg) it returns, with the same allowance for a block
// holding a NaN, whose key is at or above +Inf's either way: on a valid
// block it comes from the lane maxima and a vector search for the
// first entry equal to the largest; on a block with an invalid value,
// from a rescan of the stored values.
func store4Vector(dst, acc, x0, x1, x2, x3 []float64, w0, w1, w2, w3 float64) (best uint64, arg int) {
	m := len(acc)
	n := m &^ 3
	dst, x0, x1, x2, x3 = dst[:m], x0[:m], x1[:m], x2[:m], x3[:m]
	lanes, bad := store4AVX(dst, acc, x0, x1, x2, x3, w0, w1, w2, w3)
	top := max(lanes[0], lanes[1], lanes[2], lanes[3])
	switch {
	case bad:
		best, arg = maxKey(dst[:n])
	case top > 0: // a zero maximum (either sign) leaves best = 0, arg = 0
		// Every point holding top sits in a lane whose maximum it is, and
		// top > 0 is no zero of either sign, so the first entry equal to
		// top is the first point the scalar loop ranks highest.
		best, arg = math.Float64bits(top), firstEqVector(dst[:n], top)
	}
	if n < m {
		if k, a := store4(dst[n:], acc[n:], x0[n:], x1[n:], x2[n:], x3[n:], w0, w1, w2, w3); k > best {
			best, arg = k, n+a
		}
	}
	return best, arg
}

// maxKey returns the largest key of row and the first index holding it,
// ranked as the store loops rank them.
func maxKey(row []float64) (best uint64, arg int) {
	for j, v := range row {
		if k := math.Float64bits(v); k > best && k != negZero {
			best, arg = k, j
		}
	}
	return best, arg
}
