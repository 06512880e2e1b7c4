package pfs

// Vec is a caller's memory as an ordered list of segments: the bytes
// of a vectored transfer, packed back-to-back in run order, occupy
// Seg(0), Seg(1), … in turn, Len() bytes in all. Segments may be empty.
// A transfer only reads or only writes the segments, only during the
// call, and never asks for one past the Len()-th byte.
type Vec interface {
	Len() int64
	Seg(i int) []byte
}

// Contig is the one-segment Vec: a contiguous buffer.
type Contig []byte

func (b Contig) Len() int64     { return int64(len(b)) }
func (b Contig) Seg(int) []byte { return b }

// Segs is the many-segment Vec: separate slices, in order.
type Segs [][]byte

func (s Segs) Seg(i int) []byte { return s[i] }
func (s Segs) Len() (n int64) {
	for _, p := range s {
		n += int64(len(p))
	}
	return n
}

// Cursor walks a memory vector front to back: each call moves or skips
// the next bytes of the packed transfer, whichever segments they fall
// in. The caller never walks past Mem.Len() bytes, so a segment holding
// the next byte always exists.
type Cursor struct {
	Mem  Vec
	next int    // the next segment to open
	used int64  // bytes of the open one already passed
	rest []byte // what is left of it
}

// open makes rest non-empty.
func (c *Cursor) open() {
	for len(c.rest) == 0 {
		c.rest, c.used = c.Mem.Seg(c.next), 0
		c.next++
	}
}

// pos returns where the next byte lives: its segment and offset there.
func (c *Cursor) pos() (seg int32, off int64) {
	c.open()
	return int32(c.next - 1), c.used
}

// Skip advances past n bytes without touching them.
func (c *Cursor) Skip(n int64) {
	for n > 0 {
		c.open()
		k := min(n, int64(len(c.rest)))
		c.rest, c.used = c.rest[k:], c.used+k
		n -= k
	}
}

// Move copies the next len(p) bytes of the vector into p (toMem false)
// or p into them (toMem true).
func (c *Cursor) Move(p []byte, toMem bool) {
	for len(p) > 0 {
		c.open()
		var k int
		if toMem {
			k = copy(c.rest, p)
		} else {
			k = copy(p, c.rest)
		}
		p, c.rest, c.used = p[k:], c.rest[k:], c.used+int64(k)
	}
}
