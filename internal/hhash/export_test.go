package hhash

// portableKernels runs f with the assembly kernels switched off, so one
// `go test` on an ADX machine also covers the path every other platform
// takes. Tests in this package do not run in parallel.
func portableKernels(f func()) {
	defer func(was bool) { useADX = was }(useADX)
	useADX = false
	f()
}
