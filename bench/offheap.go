package main

import (
	"fmt"
	"syscall"
	"unsafe"
)

// offHeap returns an empty slice of capacity n whose backing array lies
// outside the Go heap. The harness keeps its per-request records there:
// on the heap, tens of megabytes of them would sit beside a store of a
// few, and since the collector paces itself by the live heap the program
// under test would be collected a tenth as often as it is in service. T
// must not contain pointers. Appending beyond n moves the slice to the
// heap. The mapping lives until the process exits.
func offHeap[T any](n int) []T {
	var zero T
	size := max(n, 1) * int(unsafe.Sizeof(zero))
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("bench: mapping %d bytes for records: %v", size, err))
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)[:0]
}
