// Package ec implements systematic Reed-Solomon erasure coding over
// GF(2^8) for stripe-width shards.
//
// A Code splits a stripe row into k data shards and m parity shards;
// any k of the k+m shards reconstruct the rest. The generator matrix
// is systematic with a column-normalized Cauchy parity block: the top
// k rows are the identity (data shards pass through unchanged) and the
// bottom m rows are C[j][t] = 1/(x_j + y_t) with disjoint x/y sets,
// scaled per column so the first parity row is all ones. Every square
// submatrix of a Cauchy matrix is nonsingular and nonzero row/column
// scaling preserves that, so any k of the k+m shards remain
// independent (MDS), while m == 1 parity degenerates to the plain XOR
// of the data shards — the property tests pin this.
//
// The arithmetic is GF(2^8) over the primitive polynomial 0x11d, with
// no dependencies and no cgo. Coding a row is a handful of passes of
// one kernel, mulXor(dst, src, coef), under Encode, Update (a delta of
// one data shard added into the parity) and every decode. Coefficient
// 1 — all of parity row 0, hence all of m == 1, and every decode that
// goes through parity row 0 with one data shard lost — is
// crypto/subtle.XORBytes, which runs at memory speed. Any other
// coefficient c runs, on amd64 with SSSE3, an assembly kernel over the
// whole 16-byte blocks (mulxor_amd64.s), using Intel ISA-L's
// split-nibble method: c·v is c·(v&15) XOR c·(v&0xf0), so two 16-entry
// tables per coefficient (8 KiB for all 256, built once from the
// product table) and one PSHUFB each look up 16 products at a time,
// about six instructions per 16 bytes. CPUID picks the kernel at init
// (leaf 1, ECX bit 9): Go's default GOAMD64=v1 does not promise SSSE3.
// It uses 128-bit registers because a 256-bit AVX2 version, faster on
// 16 KiB, cost more per call on the 300-byte slices parity deltas
// mostly are. The bytes after the last whole block, every byte on a
// CPU without SSSE3 and every byte on other architectures go through
// the portable loop: it walks the coefficient's 256-byte row of a
// product table built once at init, which stays in L1 for the whole
// pass; the loop is unrolled eight bytes at a time and has no
// data-dependent branch (the log/exp form needs one for zero bytes).
// The log/exp tables remain for matrix algebra only.
//
// Decoding inverts the k×k matrix of the surviving generator rows. The
// inverse depends only on which shards survive, so a Code caches one
// Decoder per survivor set: a dead server costs one inversion, not one
// per reconstructed segment.
package ec

import (
	"crypto/subtle"
	"fmt"
	"sync"
)

// GF(2^8) log/antilog tables for the primitive polynomial x^8 + x^4 +
// x^3 + x^2 + 1 (0x11d). expTbl is doubled so gfMul can index
// logA+logB without a mod-255 reduction. mulTbl[c][v] = c·v is the
// product table the shard kernel walks one row of (64 KiB in all; a
// pass touches 256 bytes of it).
var (
	logTbl [256]byte
	expTbl [510]byte
	mulTbl [256][256]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		expTbl[i] = byte(x)
		expTbl[i+255] = byte(x)
		logTbl[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= 0x11d
		}
	}
	for c := 1; c < 256; c++ {
		for v := 1; v < 256; v++ {
			mulTbl[c][v] = gfMul(byte(c), byte(v))
		}
	}
	initVector()
}

func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTbl[int(logTbl[a])+int(logTbl[b])]
}

func gfInv(a byte) byte {
	// a must be non-zero; callers guard.
	return expTbl[255-int(logTbl[a])]
}

// mulXor adds coef·src into dst (dst ^= coef·src, bytewise over
// GF(2^8)); src must be at least as long as dst, and either the same
// slice or not overlapping it. It and the vector kernel it calls are
// the only code in the package that touches shard bytes.
func mulXor(dst, src []byte, coef byte) {
	switch coef {
	case 0:
		return
	case 1:
		subtle.XORBytes(dst, dst, src)
		return
	}
	n := len(dst)
	src = src[:n]
	// The vector kernel takes the whole 16-byte blocks, where the CPU
	// has one; the table loop below does the rest. Eight independent
	// load-lookup-xor chains per iteration; measured here a third
	// faster than assembling the products into one 64-bit word, whose
	// shifts and ORs serialize.
	i := mulXorVec(dst, src, coef)
	t := &mulTbl[coef]
	for ; i+8 <= n; i += 8 {
		d, s := dst[i:i+8:i+8], src[i:i+8:i+8]
		d[0] ^= t[s[0]]
		d[1] ^= t[s[1]]
		d[2] ^= t[s[2]]
		d[3] ^= t[s[3]]
		d[4] ^= t[s[4]]
		d[5] ^= t[s[5]]
		d[6] ^= t[s[6]]
		d[7] ^= t[s[7]]
	}
	for ; i < n; i++ {
		dst[i] ^= t[src[i]]
	}
}

// matrix is a dense GF(2^8) matrix, row major.
type matrix [][]byte

func newMatrix(rows, cols int) matrix {
	m := make(matrix, rows)
	for i := range m {
		m[i] = make([]byte, cols)
	}
	return m
}

// invert returns the inverse of a square matrix via Gauss-Jordan
// elimination, or an error if it is singular.
func (a matrix) invert() (matrix, error) {
	n := len(a)
	// Work on a copy augmented with the identity.
	work := newMatrix(n, 2*n)
	for i := 0; i < n; i++ {
		copy(work[i], a[i])
		work[i][n+i] = 1
	}
	for col := 0; col < n; col++ {
		// Find a pivot.
		pivot := -1
		for r := col; r < n; r++ {
			if work[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, fmt.Errorf("ec: singular matrix")
		}
		work[col], work[pivot] = work[pivot], work[col]
		// Scale the pivot row to put 1 on the diagonal.
		if d := work[col][col]; d != 1 {
			inv := gfInv(d)
			for j := 0; j < 2*n; j++ {
				work[col][j] = gfMul(work[col][j], inv)
			}
		}
		// Eliminate the column everywhere else.
		for r := 0; r < n; r++ {
			if r == col || work[r][col] == 0 {
				continue
			}
			f := work[r][col]
			for j := 0; j < 2*n; j++ {
				work[r][j] ^= gfMul(f, work[col][j])
			}
		}
	}
	out := newMatrix(n, n)
	for i := 0; i < n; i++ {
		copy(out[i], work[i][n:])
	}
	return out, nil
}

// Code is a systematic Reed-Solomon k+m codec. Safe for concurrent use:
// the generator is immutable after New and the decoder cache is locked.
type Code struct {
	k, m int
	// gen is the (k+m)×k systematic generator matrix: top k rows are
	// the identity, bottom m rows the parity coefficients.
	gen matrix

	mu       sync.RWMutex
	decoders map[survivors]*Decoder
}

// survivors is the set of shard indices a Decoder reads, as a bitmask
// (k+m <= 255).
type survivors [4]uint64

// maxDecoders bounds the decoder cache. A store sees one survivor set
// per failure pattern, a handful at most; a caller that walks many
// patterns of a wide code just starts the cache over.
const maxDecoders = 64

// New builds a codec with k data shards and m parity shards.
// m == 0 is allowed and yields a pass-through codec.
func New(k, m int) (*Code, error) {
	if k < 1 {
		return nil, fmt.Errorf("ec: need at least 1 data shard, got k=%d", k)
	}
	if m < 0 {
		return nil, fmt.Errorf("ec: negative parity shard count m=%d", m)
	}
	if k+m > 255 {
		return nil, fmt.Errorf("ec: k+m = %d exceeds GF(2^8) limit of 255", k+m)
	}
	gen := newMatrix(k+m, k)
	for i := 0; i < k; i++ {
		gen[i][i] = 1
	}
	// Cauchy parity block over disjoint index sets x_j = j (rows) and
	// y_t = m+t (columns); x_j ^ y_t is never zero because the sets are
	// disjoint, so every entry is well defined.
	for j := 0; j < m; j++ {
		for t := 0; t < k; t++ {
			gen[k+j][t] = gfInv(byte(j) ^ byte(m+t))
		}
	}
	// Normalize each column by its first parity entry so parity row 0
	// is all ones (m == 1 parity is then the XOR of the data shards).
	if m > 0 {
		for t := 0; t < k; t++ {
			inv := gfInv(gen[k][t])
			for j := 0; j < m; j++ {
				gen[k+j][t] = gfMul(gen[k+j][t], inv)
			}
		}
	}
	return &Code{k: k, m: m, gen: gen, decoders: make(map[survivors]*Decoder)}, nil
}

// K returns the number of data shards.
func (c *Code) K() int { return c.k }

// M returns the number of parity shards.
func (c *Code) M() int { return c.m }

func (c *Code) checkShards(shards [][]byte, allowNil bool) (int, error) {
	if len(shards) != c.k+c.m {
		return 0, fmt.Errorf("ec: got %d shards, want %d", len(shards), c.k+c.m)
	}
	size := -1
	for i, s := range shards {
		if s == nil {
			if !allowNil {
				return 0, fmt.Errorf("ec: shard %d is nil", i)
			}
			continue
		}
		if size < 0 {
			size = len(s)
		} else if len(s) != size {
			return 0, fmt.Errorf("ec: shard %d has %d bytes, others have %d", i, len(s), size)
		}
	}
	if size < 0 {
		return 0, fmt.Errorf("ec: all shards missing")
	}
	return size, nil
}

// Encode computes the m parity shards from the k data shards.
// shards must hold k+m equal-length slices: the first k contain data,
// the last m are overwritten with parity.
func (c *Code) Encode(shards [][]byte) error {
	if _, err := c.checkShards(shards, false); err != nil {
		return err
	}
	for j := 0; j < c.m; j++ {
		out := shards[c.k+j]
		clear(out)
		for t, coef := range c.gen[c.k+j] {
			mulXor(out, shards[t], coef)
		}
	}
	return nil
}

// Update adds a change of data shard t to the m parity shards: delta
// is the XOR of the shard's old and new bytes from byte col on, and
// each parity[j] gets coef(j, t)·delta added at the same column. Code
// is linear, so parity encoded from the old data plus the update is the
// parity of the new data, and updates of any order compose.
func (c *Code) Update(parity [][]byte, t, col int, delta []byte) error {
	if len(parity) != c.m || t < 0 || t >= c.k {
		return fmt.Errorf("ec: update of data shard %d into %d parity shards; the code has %d and %d", t, len(parity), c.k, c.m)
	}
	for j, p := range parity {
		if col < 0 || col+len(delta) > len(p) {
			return fmt.Errorf("ec: update of bytes [%d,%d) outside parity shard %d's %d", col, col+len(delta), j, len(p))
		}
		mulXor(p[col:col+len(delta)], delta, c.gen[c.k+j][t])
	}
	return nil
}

// Reconstruct fills in every nil shard (data and parity) from the
// present ones. At least k shards must be non-nil.
func (c *Code) Reconstruct(shards [][]byte) error {
	return c.reconstruct(shards, true)
}

// ReconstructData fills in only the nil data shards; missing parity
// shards are left nil. At least k shards must be non-nil.
func (c *Code) ReconstructData(shards [][]byte) error {
	return c.reconstruct(shards, false)
}

func (c *Code) reconstruct(shards [][]byte, parityToo bool) error {
	size, err := c.checkShards(shards, true)
	if err != nil {
		return err
	}
	// Also the check that k shards survive; with no data shard lost it
	// is the cached identity and Decode is never called.
	dec, err := c.Decoder(shards)
	if err != nil {
		return err
	}
	for d := 0; d < c.k; d++ {
		if shards[d] != nil {
			continue
		}
		out := make([]byte, size)
		if err := dec.Decode(out, d, shards); err != nil {
			return err
		}
		shards[d] = out
	}
	if parityToo {
		// Data is complete now; recompute any missing parity directly.
		for j := 0; j < c.m; j++ {
			if shards[c.k+j] != nil {
				continue
			}
			shards[c.k+j] = make([]byte, size)
		}
		return c.Encode(shards)
	}
	return nil
}

// Decoder rebuilds data shards from one fixed set of k surviving
// shards: the inverse of their stacked generator rows. Immutable, so
// one Decoder serves any number of concurrent Decode calls.
type Decoder struct {
	src []int  // the k shard indices read, ascending
	inv matrix // k×k: data shard d = Σ_t inv[d][t] · shards[src[t]]
}

// Decoder returns the decoder that reads the first k non-nil entries of
// shards, building and caching it on the first use of that survivor
// set. Callers that reconstruct many byte ranges under one failure
// pattern fetch it once and call Decode per range.
func (c *Code) Decoder(shards [][]byte) (*Decoder, error) {
	if len(shards) != c.k+c.m {
		return nil, fmt.Errorf("ec: got %d shards, want %d", len(shards), c.k+c.m)
	}
	var key survivors
	present := 0
	for i := 0; i < len(shards) && present < c.k; i++ {
		if shards[i] != nil {
			key[i/64] |= 1 << (i % 64)
			present++
		}
	}
	if present < c.k {
		return nil, fmt.Errorf("ec: only %d of %d shards present, need %d", present, c.k+c.m, c.k)
	}
	c.mu.RLock()
	dec := c.decoders[key]
	c.mu.RUnlock()
	if dec != nil {
		return dec, nil
	}
	// Their generator rows stacked form an invertible k×k matrix whose
	// inverse maps the survivors back to data.
	src := make([]int, 0, c.k)
	sub := make(matrix, 0, c.k)
	for i := range shards {
		if key[i/64]&(1<<(i%64)) != 0 {
			src = append(src, i)
			sub = append(sub, c.gen[i])
		}
	}
	inv, err := sub.invert()
	if err != nil {
		return nil, err // unreachable: any k generator rows are independent
	}
	dec = &Decoder{src: src, inv: inv}
	c.mu.Lock()
	if len(c.decoders) >= maxDecoders {
		clear(c.decoders)
	}
	c.decoders[key] = dec
	c.mu.Unlock()
	return dec, nil
}

// Decode computes data shard d into dst from the survivors the decoder
// was built for, which must all be present in shards at dst's length.
// Nothing is allocated and shards is not modified.
func (dec *Decoder) Decode(dst []byte, d int, shards [][]byte) error {
	if d < 0 || d >= len(dec.inv) {
		return fmt.Errorf("ec: shard %d is not a data shard", d)
	}
	for _, i := range dec.src {
		if i >= len(shards) || len(shards[i]) != len(dst) {
			return fmt.Errorf("ec: decoder reads shard %d at %d bytes, which shards does not hold", i, len(dst))
		}
	}
	clear(dst)
	for t, coef := range dec.inv[d] {
		mulXor(dst, shards[dec.src[t]], coef)
	}
	return nil
}
