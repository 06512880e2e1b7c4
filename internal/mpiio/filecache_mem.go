package mpiio

import "math/bits"

// The extent cache's own memory (see "Memory" in filecache.go). Every
// function here needs fileCache.mu held.

// cbuf is one buffer of cache memory. Each cached extent's data is a
// sub-slice of one cbuf, and punch remainders share their parent's.
// refs counts the resident extents over b plus the pins of readers
// outside fileCache.mu; pins is the part of refs that is pins. The
// buffer is free once refs is zero.
type cbuf struct {
	b     []byte // len == cap
	refs  int32
	pins  int32
	freed int64 // fileCache.freeClock when b last went on a free list
}

// poisonFree makes every buffer that becomes free fill with 0xA5, so a
// reader that outlives its reference reads garbage instead of stale
// bytes that happen to be right. Only tests set it.
var poisonFree bool

// sizeClass is the free list a buffer of n > 0 bytes goes on: n's power
// of two, rounded down.
func sizeClass(n int64) int { return bits.Len64(uint64(n)) - 1 }

// getBuf returns an unreferenced buffer of at least n and under 2n
// bytes, n > 0: the newest free one of n's size class if it is large
// enough, else the newest of the next larger class that has one — cut
// to n bytes if it holds 2n, the rest staying free — else a new one of
// exactly n bytes.
func (w *fileCache) getBuf(n int64) *cbuf {
	c := sizeClass(n)
	if l := w.free[c]; len(l) > 0 && int64(len(l[len(l)-1].b)) >= n {
		return w.pop(c)
	}
	for k := c + 1; k < len(w.free); k++ {
		if len(w.free[k]) == 0 {
			continue
		}
		b := w.pop(k)
		if int64(len(b.b)) >= 2*n {
			w.push(w.newHeader(b.b[n:]))
			b.b = b.b[:n:n]
		}
		return b
	}
	return w.newHeader(make([]byte, n))
}

// newHeader wraps memory in a buffer header. Headers are allocated 64 to
// a slab, so a header given to the garbage collector lets go of its
// bytes (the slab may live on).
func (w *fileCache) newHeader(p []byte) *cbuf {
	if len(w.hdrs) == 0 {
		w.hdrs = make([]cbuf, 64)
	}
	b := &w.hdrs[0]
	w.hdrs = w.hdrs[1:]
	b.b = p
	return b
}

// pop takes the newest buffer off free list c; push puts a free buffer
// on its list, newest last.
func (w *fileCache) pop(c int) *cbuf {
	l := w.free[c]
	b := l[len(l)-1]
	l[len(l)-1] = nil
	w.free[c] = l[:len(l)-1]
	w.freeBytes -= int64(len(b.b))
	return b
}

func (w *fileCache) push(b *cbuf) {
	w.freeClock++
	b.freed = w.freeClock
	c := sizeClass(int64(len(b.b)))
	w.free[c] = append(w.free[c], b)
	w.freeBytes += int64(len(b.b))
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

// drop frees b if nothing references it. The free lists keep at most
// the budget in bytes: to make room they give their longest-free
// buffers to the garbage collector, since the sizes just freed are the
// likeliest to be asked for next.
func (w *fileCache) drop(b *cbuf) {
	if b.refs > 0 {
		return
	}
	if poisonFree {
		for i := range b.b {
			b.b[i] = 0xA5
		}
	}
	if int64(len(b.b)) > w.budget {
		b.b = nil
		return
	}
	for w.freeBytes+int64(len(b.b)) > w.budget {
		w.dropOldest()
	}
	w.push(b)
}

// dropOldest gives the longest-free buffer to the garbage collector.
// Each list is in the order its buffers were freed, so that buffer is
// the first of some list.
func (w *fileCache) dropOldest() {
	k := -1
	for c, l := range w.free {
		if len(l) > 0 && (k < 0 || l[0].freed < w.free[k][0].freed) {
			k = c
		}
	}
	l := w.free[k]
	w.freeBytes -= int64(len(l[0].b))
	l[0].b = nil
	l[0] = nil
	w.free[k] = l[1:]
}

// lendBuf is the spill tier's Alloc: read-backs land in cache memory,
// with the buffer as their Owner. It is unreferenced until the caller
// links an extent over it or pins it.
func (w *fileCache) lendBuf(n int64) ([]byte, any) {
	b := w.getBuf(n)
	return b.b[:n], b
}
