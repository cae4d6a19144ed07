package arena

import "unsafe"

// This file is the only place in the repository where raw bytes are
// reinterpreted as typed data (see the arenaonly lint rule). Every
// alias call is made against a section whose offset the parser has
// already checked to be 8-byte aligned within an 8-aligned (page- or
// heap-) base, so the pointer casts below never produce a misaligned
// load.

// hostLittleEndian reports whether the running CPU stores integers
// little-endian. The sealed format is defined as little-endian, and on
// the wrong-endian host the typed views below would silently byte-swap
// every value — so both sealing and opening refuse to run there.
func hostLittleEndian() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}

// alias reinterprets b as a []T without copying. b must be empty or
// start at a Sizeof(T)-aligned address and hold a whole number of T.
func alias[T any](b []byte) []T {
	if len(b) == 0 {
		return nil
	}
	var zero T
	size := int(unsafe.Sizeof(zero))
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), len(b)/size)
}

// asBytes is the inverse of alias: the raw little-endian bytes of v,
// without copying. Only valid on little-endian hosts (the writer
// checks once at construction).
func asBytes[T any](v []T) []byte {
	if len(v) == 0 {
		return nil
	}
	var zero T
	size := int(unsafe.Sizeof(zero))
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*size)
}

// byteString views b as a string without copying — the zero-alloc path
// for rule IDs served straight from the mapping. The string is valid for as long as the arena stays mapped;
// everything handed out lives behind a Model, which keeps its Arena
// reachable.
func byteString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// alignedCopy returns a copy of data whose base address is 8-byte
// aligned, for the rare allocator that hands ReadFile bytes at an odd
// offset.
func alignedCopy(data []byte) []byte {
	buf := make([]uint64, (len(data)+7)/8)
	out := asBytes(buf)[:len(data)]
	copy(out, data)
	return out
}

// isAligned8 reports whether b's base address is 8-byte aligned.
func isAligned8(b []byte) bool {
	if len(b) == 0 {
		return true
	}
	return uintptr(unsafe.Pointer(&b[0]))%8 == 0
}
