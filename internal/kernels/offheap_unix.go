//go:build unix

package kernels

import (
	"syscall"
	"unsafe"
)

// allocKeys returns n zeroed int32s mapped outside the Go heap, and the
// mapping for freeKeys. If the mapping is refused the keys come from the
// heap, with a nil mapping.
func allocKeys(n int) ([]int32, []byte) {
	mem, err := syscall.Mmap(-1, 0, 4*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]int32, n), nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&mem[0])), n), mem
}

// freeKeys unmaps what allocKeys mapped; a nil mapping is the collector's.
func freeKeys(mem []byte) {
	if mem != nil {
		_ = syscall.Munmap(mem)
	}
}
