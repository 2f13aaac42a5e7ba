//go:build !amd64

package kernel

// maxExclVector is never called off amd64, where useVector is false.
func maxExclVector(row []float64, excl int32) (int32, float64) {
	panic("kernel: no vector row reduction off amd64")
}

// markAtLeastVector is markAtLeast itself off amd64.
func markAtLeastVector(row []float64, t float64, bits []uint64) { markAtLeast(row, t, bits) }
