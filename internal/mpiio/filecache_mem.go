package mpiio

import (
	"math/bits"
	"sync"
)

// The extent cache's own memory (see "Memory" in filecache.go). Every
// function here needs fileCache.mu held.

// cbuf is one buffer of cache memory. Each cached extent's data is a
// sub-slice of one cbuf, and punch remainders share their parent's.
// refs counts the resident extents over b plus the pins of readers
// outside fileCache.mu; pins is the part of refs that is pins. The
// buffer is free once refs is zero.
type cbuf struct {
	b    []byte // len == cap, a power of two
	refs int32
	pins int32
}

// poisonFree makes every buffer that becomes free fill with 0xA5, so a
// reader that outlives its reference reads garbage instead of stale
// bytes that happen to be right. Only tests set it.
var poisonFree bool

// bufClasses holds the free buffers of every cache in the process, one
// pool per power of two: class c holds buffers of exactly 1<<c bytes.
// Nothing caps them; a pool the garbage collector finds idle empties
// over two cycles.
var bufClasses [64]sync.Pool

// getBuf returns an unreferenced buffer for n > 0 bytes: one of exactly
// n rounded up to a power of two, so at least n and under 2n, from
// that class's pool or made.
func (w *fileCache) getBuf(n int64) *cbuf {
	c := bits.Len64(uint64(n - 1))
	if b, ok := bufClasses[c].Get().(*cbuf); ok {
		return b
	}
	return &cbuf{b: make([]byte, 1<<c)}
}

// newExt makes an extent over data, a sub-slice of b, and counts it in
// b's references.
func newExt(off int64, data []byte, b *cbuf, dirty bool, use int64) *cext {
	b.refs++
	return &cext{off: off, data: data, buf: b, dirty: dirty, use: use}
}

func (w *fileCache) pin(b *cbuf) { b.refs++; b.pins++ }

func (w *fileCache) unpin(b *cbuf) {
	b.pins--
	w.unref(b)
}

// unref drops one reference; the last frees b.
func (w *fileCache) unref(b *cbuf) {
	b.refs--
	w.drop(b)
}

// drop frees b into its class's pool if nothing references it.
func (w *fileCache) drop(b *cbuf) {
	if b.refs > 0 {
		return
	}
	if poisonFree {
		for i := range b.b {
			b.b[i] = 0xA5
		}
	}
	bufClasses[bits.Len64(uint64(len(b.b)))-1].Put(b)
}

// lendBuf is the spill tier's Alloc: read-backs land in cache memory,
// with the buffer as their Owner. It is unreferenced until the caller
// links an extent over it or pins it.
func (w *fileCache) lendBuf(n int64) ([]byte, any) {
	b := w.getBuf(n)
	return b.b[:n], b
}
