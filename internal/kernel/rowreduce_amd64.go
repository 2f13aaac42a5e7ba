package kernel

// maxAVX returns the largest of x[:len(x)&^15], or -Inf when that is
// empty. x must hold no NaN.
//
//go:noescape
func maxAVX(x []float64) float64

// firstEqAVX returns the first index j < len(x)&^3 with x[j] == v, or
// len(x)&^3 when there is none.
//
//go:noescape
func firstEqAVX(x []float64, v float64) int

// atLeastAVX ORs into bits[w], for each w < len(x)/64, the mask whose
// bit i is set when x[64w+i] >= t.
//
//go:noescape
func atLeastAVX(x []float64, t float64, bits []uint64)

// maxExclVector is RowMaxExcl over every column of a float64 row of no
// NaN: the largest entry outside column excl from maxAVX, then the
// first column holding it from firstEqAVX. The maximum does not depend
// on the order the values are visited in, and the first column equal
// to it is the one the ordered strict-> scan keeps, so the index is the
// scan's. The value returned is that column's own entry, so a −0 comes
// back as the scan returns it. An excl outside the row skips nothing.
func maxExclVector(row []float64, excl int32) (int32, float64) {
	lo, hi := row, row[:0]
	if e := int(excl); e >= 0 && e < len(row) {
		lo, hi = row[:e], row[e+1:]
	}
	top := max(maxVector(lo), maxVector(hi))
	if !(top > -1) {
		return -1, -1
	}
	j := firstEqVector(lo, top)
	if j == len(lo) {
		j += 1 + firstEqVector(hi, top)
	}
	return int32(j), row[j]
}

// maxVector returns the largest of x, or -Inf when x is empty.
func maxVector(x []float64) float64 {
	top := maxAVX(x)
	for _, v := range x[len(x)&^15:] {
		if v > top {
			top = v
		}
	}
	return top
}

// firstEqVector returns the first index j with x[j] == v, or len(x).
func firstEqVector(x []float64, v float64) int {
	j := firstEqAVX(x, v)
	for ; j < len(x); j++ {
		if x[j] == v {
			break
		}
	}
	return j
}

// markAtLeastVector is markAtLeast with the full 64-entry words run by
// atLeastAVX. Its ordered compare is false on NaN, like the scalar >=.
func markAtLeastVector(row []float64, t float64, bits []uint64) {
	n := len(row) &^ 63
	atLeastAVX(row[:n], t, bits[:n/64])
	markAtLeast(row[n:], t, bits[n/64:])
}
