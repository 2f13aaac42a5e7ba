package kernel

// Store4 is the scalar float64 last chunk and Store4Vector the vector
// one Fill runs in its place when VectorFill reports true; the
// equivalence tests call both directly.
var (
	Store4       = store4[float64]
	Store4Vector = store4Vector
)

// VectorFill reports whether float64 fills and row reductions run the
// vector kernels.
func VectorFill() bool { return useVector }
