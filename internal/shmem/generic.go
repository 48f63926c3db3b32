package shmem

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// Typed layer. OpenSHMEM defines its RMA/collective surface per C type
// (short, int, long, long long, float, double); here each family is written
// once over Element, and the *Int64 / *Float64 methods on Ctx are its
// instantiations. This file holds the only element encode, decode and
// combine in the package. The wire format is little-endian, matching the
// simulated fabric's atomics.

// Element is the constraint covering the OpenSHMEM element types.
type Element interface {
	~int32 | ~int64 | ~uint32 | ~uint64 | ~float32 | ~float64
}

func elemSize[T Element]() int { return int(unsafe.Sizeof(*new(T))) }

// store writes v's bits at b[0:], load reads them back. An element is 4 or 8
// bytes wide and its bits are reinterpreted the way math.Float64bits does, so
// the width is a constant of the instantiation, not a type switch per element.
func store[T Element](b []byte, v T) {
	if unsafe.Sizeof(v) == 4 {
		binary.LittleEndian.PutUint32(b, *(*uint32)(unsafe.Pointer(&v)))
	} else {
		binary.LittleEndian.PutUint64(b, *(*uint64)(unsafe.Pointer(&v)))
	}
}

func load[T Element](b []byte) (v T) {
	if unsafe.Sizeof(v) == 4 {
		*(*uint32)(unsafe.Pointer(&v)) = binary.LittleEndian.Uint32(b)
	} else {
		*(*uint64)(unsafe.Pointer(&v)) = binary.LittleEndian.Uint64(b)
	}
	return v
}

func encodeSlice[T Element](src []T) []byte {
	sz := elemSize[T]()
	b := make([]byte, sz*len(src))
	for i, v := range src {
		store(b[sz*i:], v)
	}
	return b
}

// decodeInto fills dst from the first len(dst) elements of b.
func decodeInto[T Element](dst []T, b []byte) []T {
	sz := elemSize[T]()
	for i := range dst {
		dst[i] = load[T](b[sz*i:])
	}
	return dst
}

func decodeSlice[T Element](b []byte) []T {
	return decodeInto(make([]T, len(b)/elemSize[T]()), b)
}

// Put writes a typed vector into dest at pe (the shmem_TYPE_put family).
func Put[T Element](c *Ctx, dest SymAddr, src []T, pe int) {
	c.PutMem(dest, encodeSlice(src), pe)
}

// Get reads n typed elements from src at pe (the shmem_TYPE_get family).
func Get[T Element](c *Ctx, src SymAddr, n, pe int) []T {
	return getInto(c, make([]T, n), src, pe)
}

func getInto[T Element](c *Ctx, dest []T, src SymAddr, pe int) []T {
	buf := make([]byte, elemSize[T]()*len(dest))
	c.GetMem(buf, src, pe)
	return decodeInto(dest, buf)
}

// P writes one element (shmem_TYPE_p).
func P[T Element](c *Ctx, dest SymAddr, v T, pe int) {
	Put(c, dest, []T{v}, pe)
}

// G reads one element (shmem_TYPE_g).
func G[T Element](c *Ctx, src SymAddr, pe int) T {
	var out [1]T
	return getInto(c, out[:], src, pe)[0]
}

// Reduce performs a typed allreduce (the shmem_TYPE_OP_to_all family).
// Bitwise operators are rejected for floating-point element types, like the
// specification.
func Reduce[T Element](c *Ctx, op ReduceOp, local []T) []T {
	return reduceSet(c, c.World(), op, local)
}

func reduceSet[T Element](c *Ctx, as ActiveSet, op ReduceOp, local []T) []T {
	if op >= OpAnd && isFloat[T]() {
		panic("shmem: bitwise reduction invalid for floating-point types")
	}
	res := c.reduceBytesSet(as, encodeSlice(local), func(acc, in []byte) { combine[T](op, acc, in) })
	return decodeSlice[T](res)
}

// FCollect gathers equal-length typed vectors from all PEs, rank-ordered
// (the shmem_fcollect family).
func FCollect[T Element](c *Ctx, contrib []T) []T {
	return decodeSlice[T](c.FCollectBytes(encodeSlice(contrib)))
}

// Broadcast distributes root's typed vector to all PEs (shmem_broadcast).
func Broadcast[T Element](c *Ctx, root int, data []T) []T {
	var buf []byte
	if c.rank == root {
		buf = encodeSlice(data)
	}
	return decodeSlice[T](c.BroadcastBytes(root, buf))
}

// isFloat tells the two floating-point instantiations from the four integer
// ones: a half survives only where division does not truncate.
func isFloat[T Element]() bool { return T(1)/2 != 0 }

// combine folds in into acc element-wise, both in wire format. Bitwise
// operators are defined on the representation, so they fold the bytes as they
// are; floating-point OpMin/OpMax are math.Min/math.Max (NaN wins, -0 < +0).
func combine[T Element](op ReduceOp, acc, in []byte) {
	if op >= OpAnd {
		for i := range acc {
			acc[i] = bitwise(op, acc[i], in[i])
		}
		return
	}
	float := isFloat[T]()
	for sz, i := elemSize[T](), 0; i+sz <= len(acc); i += sz {
		a, b := load[T](acc[i:]), load[T](in[i:])
		switch {
		case op == OpSum:
			a += b
		case op == OpProd:
			a *= b
		case op == OpMin && float:
			a = T(math.Min(float64(a), float64(b)))
		case op == OpMax && float:
			a = T(math.Max(float64(a), float64(b)))
		case op == OpMin && b < a, op == OpMax && b > a:
			a = b
		}
		store(acc[i:], a)
	}
}

func bitwise(op ReduceOp, a, b byte) byte {
	switch op {
	case OpAnd:
		return a & b
	case OpOr:
		return a | b
	case OpXor:
		return a ^ b
	}
	panic("shmem: unknown reduce op")
}
