package sparse

// Kernels names the kernel set, always "fast", which benchmark/ records
// in its run metadata. For benchmark/ only; delete with ROADMAP item
// 1(a).
func Kernels() string { return "fast" }
