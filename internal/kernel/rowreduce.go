package kernel

// MarkAtLeast sets bit i&63 of bits[i>>6] for every i with row[i] >= t
// and leaves the other bits as they are. bits must hold at least
// (len(row)+63)/64 words. With useVector set it runs the full 64-entry
// words in the vector unit (rowreduce_amd64.s), with the scalar loop's
// marks.
func MarkAtLeast(row []float64, t float64, bits []uint64) {
	if useVector {
		markAtLeastVector(row, t, bits)
		return
	}
	markAtLeast(row, t, bits)
}

func markAtLeast(row []float64, t float64, bits []uint64) {
	for i, v := range row {
		if v >= t {
			bits[i>>6] |= 1 << (i & 63)
		}
	}
}
