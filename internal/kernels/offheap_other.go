//go:build !unix

package kernels

// allocKeys returns n zeroed int32s from the heap, where this platform
// keeps them, and a nil mapping.
func allocKeys(n int) ([]int32, []byte) { return make([]int32, n), nil }

// freeKeys leaves the heap's keys to the collector.
func freeKeys([]byte) {}
