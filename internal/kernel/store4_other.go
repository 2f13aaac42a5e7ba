//go:build !amd64

package kernel

// useVector is false off amd64: every chunk and row reduction runs the
// scalar loops.
const useVector = false

// store4Vector is store4 itself off amd64.
func store4Vector(dst, acc, x0, x1, x2, x3 []float64, w0, w1, w2, w3 float64) (best uint64, arg int) {
	return store4(dst, acc, x0, x1, x2, x3, w0, w1, w2, w3)
}
