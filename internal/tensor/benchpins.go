package tensor

// Clip bounds every element of x to [-limit, limit] in place, as Clamp
// does each one. For benchmark/ only; delete with ROADMAP item 1(a).
func Clip(x []float32, limit float32) {
	for i, v := range x {
		x[i] = Clamp(v, limit)
	}
}
