package mpiio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"

	"drxmp/internal/par"
	"drxmp/internal/pfs"
	"drxmp/internal/place"
)

// Two-phase collective I/O (the ROMIO technique referenced through the
// paper's citation [25], "Noncontiguous I/O accesses through MPI-IO").
//
// Who owns what. The carving (internal/place.ByteCyclic, stripe
// aligned) splits the byte range touched by any rank into aggregation
// domains, one per aggregator; the aggregator count is the ROMIO
// "cb_nodes" analogue (adaptive by default, File.CBNodes overrides). Every rank allgathers
// its file runs, carves the same domains from the replicated lists and
// cuts every rank's runs into pieces at domain boundaries (placePieces)
// — so both sides of every transfer below know the layout without
// another message.
//
// Who copies what. A caller hands the collective its file runs and its
// memory as an ordered vector of segments (ReadAllV/WriteAllV; a
// contiguous buffer is the one-segment vector ReadAllAt/WriteAllAt
// pass). Each byte then moves twice on this rank, plus the hop only
// remote bytes take:
//
//	write:  caller's memory ──copy──▶ aggregator staging ──WriteV──▶ servers
//	read:   servers ──ReadV──▶ aggregator staging ──copy──▶ caller's memory
//
// A piece whose aggregator is the calling rank takes exactly that path:
// it is copied straight between the caller's segments and the staging
// buffer and never enters the exchange. Only a piece owned by another
// rank is packed into a per-peer send buffer, crosses
// cluster.AlltoallvSparse (which copies it into the message) and is
// copied out of the received payload on the far side. The staging
// buffer holds the domain's coalesced union runs packed back-to-back,
// which is the layout pfs.ReadV/WriteV take, so the aggregate phase is
// ONE vectored call per aggregator: every per-server segment is queued
// up front and the elevator sees the whole batch. A write needs no
// read-modify-write round because every byte of the union is covered by
// some rank's piece; overlapping writes resolve in rank order (higher
// rank wins), a deterministic refinement of MPI's "undefined".
//
// Which buffers are pooled. Staging and send buffers come from bufPool
// (GetBuf) with UNSPECIFIED contents — nothing here zero-fills them,
// which is sound because a write's staging is fully covered by pieces
// and a read's staging is fully filled by ReadV/ReadThrough (the
// poisoned-pool tests hold both to it). A send buffer returns to the
// pool as soon as the exchange returns (the messages are copies); a
// staging buffer returns when the aggregate write has landed or the
// last piece has been copied out of it. The one exemption is a write
// under File.WriteBehind: the shared extent cache ALIASES the staging
// buffer's runs as its dirty extents (Absorb), so that buffer belongs
// to the cache from then on and is allocated fresh, never pooled.
//
// Workers (internal/par, File.Parallelism) fan out the stages whose
// items are independent — carving each rank's pieces, packing each
// peer's read payload; moving the caller's own bytes is one ordered
// walk over its vector. The communicator collectives — Allgather, the
// sparse exchange, the agree round — stay in one fixed order on every
// rank, so the worker count is invisible to the data and to the
// error-agreement semantics.
//
// With File.WriteBehind enabled, a collective write does not dispatch
// at all: each aggregator absorbs its coalesced union runs into the
// file's SHARED unified extent cache (filecache.go — one cache per
// store, used by every rank's handle), merging with the unions of
// earlier collectives, and the cache flushes in large vectored sweeps
// on the watermark, on Sync/Close, on budget-pressure eviction, or
// when a read intersects a dirty extent. The collective's global union
// is punched out of the cache exactly once before the exchange
// (PunchOnce), so stale data for ranges whose domain ownership moved
// cannot outlive the collective that rewrote them. Collective reads
// add one agreement round after the coherence step so an in-flight
// wb-only flush on one rank lands before any other rank's aggregator
// starts fetching. With File.CacheBytes > 0 the read side goes through
// the same cache: aggregateRead serves cached stripes (clean or
// deferred-dirty) from memory and sieve-fetches only the holes.

// Buf is a byte buffer from the package's pool. B has the requested
// length and UNSPECIFIED contents: the taker overwrites every byte it
// later reads.
type Buf struct{ B []byte }

// bufPool holds the collective's staging and send buffers and drxmp's
// section scratch. A buffer too small for its taker is regrown in
// place, so the pool converges on the largest transfer in flight.
var bufPool = sync.Pool{New: func() any { return new(Buf) }}

// GetBuf takes an n-byte buffer from the pool.
func GetBuf(n int64) *Buf {
	b := bufPool.Get().(*Buf)
	if int64(cap(b.B)) < n {
		b.B = make([]byte, n)
	}
	b.B = b.B[:n]
	return b
}

// Release returns b to the pool; the caller must not touch b.B again.
// A nil b is a no-op.
func (b *Buf) Release() {
	if b != nil {
		bufPool.Put(b)
	}
}

// ReadAllAt is the collective read: every rank of the communicator must
// call it (ranks with nothing to read pass an empty buf). Each rank
// reads len(buf) view bytes at its own viewOff through its own view.
func (f *File) ReadAllAt(buf []byte, viewOff int64) error {
	return f.collectiveAt(buf, viewOff, false)
}

// WriteAllAt is the collective write counterpart of ReadAllAt.
func (f *File) WriteAllAt(buf []byte, viewOff int64) error {
	return f.collectiveAt(buf, viewOff, true)
}

func (f *File) collectiveAt(buf []byte, viewOff int64, write bool) error {
	if viewOff < 0 {
		return fmt.Errorf("mpiio: negative view offset %d", viewOff)
	}
	var runs []pfs.Run
	if len(buf) > 0 {
		runs = f.runsFor(viewOff, int64(len(buf)))
	}
	return f.collective(runs, Contig(buf), write)
}

// Vec is a caller's memory as an ordered list of segments and Contig
// the one-segment Vec (see pfs.Vec): the same vector travels from a
// section call down to the servers.
type (
	Vec    = pfs.Vec
	Contig = pfs.Contig
)

// ReadAllV is the collective twin of ReadV: every rank must call it,
// each with its own absolute file runs (none on an idle rank) and its
// own memory vector. The runs' bytes, packed back-to-back in run order,
// fill mem's segments in order, so mem.Len() must be the sum of the run
// lengths; the file view plays no part. On error the contents of
// mem are unspecified.
func (f *File) ReadAllV(runs []pfs.Run, mem Vec) error {
	if err := checkVec(runs, mem); err != nil {
		return err
	}
	return f.collective(runs, mem, false)
}

// WriteAllV is the collective write counterpart of ReadAllV: mem's
// segments, concatenated, supply the runs' bytes in run order.
func (f *File) WriteAllV(runs []pfs.Run, mem Vec) error {
	if err := checkVec(runs, mem); err != nil {
		return err
	}
	return f.collective(runs, mem, true)
}

// checkVec rejects a memory vector that does not hold exactly the runs'
// bytes. Like every argument check it fails locally, before the first
// communicator round.
func checkVec(runs []pfs.Run, mem Vec) error {
	var want int64
	for _, r := range runs {
		if r.Off < 0 || r.Len <= 0 {
			return fmt.Errorf("mpiio: invalid run %+v", r)
		}
		want += r.Len
	}
	if have := mem.Len(); want != have {
		return fmt.Errorf("mpiio: memory vector of %d bytes for %d bytes of runs", have, want)
	}
	return nil
}

// placed is one run fragment with its aggregation-domain owner and file
// extent. A rank's placed list is in the order of its packed transfer
// (the concatenation of its memory vector), and both sides of every
// exchange walk it in that order, so payload layouts agree without
// further communication.
type placed struct {
	owner   int
	fileOff int64
	n       int64
}

// splitRun cuts a run at domain boundaries, in offset order, for ANY
// carving, and appends the pieces to out. Zero-length runs produce no
// pieces. Adjacent pieces of the run with the same owner merge (under
// the cyclic carving with one aggregator, every block has the same
// owner).
func splitRun(out []placed, d place.Domains, run pfs.Run) []placed {
	first := len(out)
	off, remaining := run.Off, run.Len
	for remaining > 0 {
		owner := d.Owner(off)
		take := min(d.BlockEnd(off)-off, remaining)
		if m := len(out) - 1; m >= first && out[m].owner == owner {
			out[m].n += take
		} else {
			out = append(out, placed{owner: owner, fileOff: off, n: take})
		}
		off += take
		remaining -= take
	}
	return out
}

// placePieces cuts a rank's runs, in order, at domain boundaries and
// sums the bytes it places with each of the `ranks` possible owners.
func placePieces(dom place.Domains, runs []pfs.Run, ranks int) (pl []placed, toOwner []int64) {
	pl = make([]placed, 0, 2*len(runs))
	toOwner = make([]int64, ranks)
	for _, run := range runs {
		pl = splitRun(pl, dom, run)
	}
	for _, p := range pl {
		toOwner[p.owner] += p.n
	}
	return pl, toOwner
}

// collective is the one two-phase core: this rank transfers runs (file
// order is the caller's) between the file and mem, whose segments hold
// the runs' bytes packed in run order.
func (f *File) collective(myRuns []pfs.Run, mem Vec, write bool) error {
	all, err := f.comm.Allgather(encodeRuns(myRuns))
	if err != nil {
		return err
	}
	runsByRank := make([][]pfs.Run, len(all))
	lo, hi := int64(-1), int64(-1)
	var totalBytes int64
	for r, blob := range all {
		rr, err := decodeRuns(blob)
		if err != nil {
			return err
		}
		runsByRank[r] = rr
		for _, run := range rr {
			if lo < 0 || run.Off < lo {
				lo = run.Off
			}
			if run.Off+run.Len > hi {
				hi = run.Off + run.Len
			}
			totalBytes += run.Len
		}
	}
	if lo < 0 { // nobody transfers anything
		return nil
	}

	// Aggregator selection and domain carving: every rank computes the
	// same carving from the allgathered span (and the shared CBNodes
	// setting), so the placement agrees everywhere without another
	// round. The aggregator count is the carving's domain count.
	dom := f.carve(lo, hi, totalBytes)
	size := f.comm.Size()
	me := f.comm.Rank()
	workers := f.workers()

	// Place every rank's pieces once; every later stage walks these
	// lists instead of re-splitting runs. bytesTo[r][a] is what rank r
	// moves through aggregator a: it sizes every payload and decides
	// who exchanges with whom.
	placedBy := make([][]placed, size)
	bytesTo := make([][]int64, size)
	_ = par.Do(workers, size, func(r int) error {
		placedBy[r], bytesTo[r] = placePieces(dom, runsByRank[r], size)
		return nil
	})
	myPlaced := placedBy[me]
	f.attrLocality(placedBy)

	// Unified-cache coherence. The global union of the collective is
	// the exact byte set about to move: a write punches it out of the
	// cache — clean and dirty extents alike — exactly once (PunchOnce:
	// stale data for re-homed ranges is discarded before any
	// aggregator absorbs or writes its replacement); a read must
	// observe the deferred bytes. With clean caching on, the read side
	// needs no flush — the aggregators' ReadThrough serves dirty
	// extents straight from memory, and a caching flush never removes
	// data mid-sweep — but in wb-only mode the intersecting dirty
	// extents are flushed and the agreement round barriers in-flight
	// flushes before any aggregator fetches.
	wb := f.sharedCache()
	if f.WriteBehind != 0 || f.cacheActive() {
		// Resolve (and on the first caching collective, create) the
		// shared cache HERE, before any rank can absorb or fetch:
		// creation mid-collective would let a slow rank observe the
		// cache late and punch the union after a fast aggregator's
		// absorb.
		wb = f.cache()
	}
	var union []pfs.Run
	if wb != nil {
		for _, rr := range runsByRank {
			union = append(union, rr...)
		}
		union = pfs.Coalesce(union)
	}
	if write {
		if wb != nil {
			wb.PunchOnce(size, union)
		}
	} else if f.WriteBehind != 0 || wb != nil {
		// The extra round runs only when a cache is in play, so the
		// PR 3 wire pattern is untouched otherwise. It is mandatory
		// whenever a flush can fail here: returning ferr without the
		// round would strand peers in the exchange. Every rank must
		// agree on the knobs, and cache existence is synchronized by
		// the collective that created it.
		var ferr error
		if wb != nil && !wb.caching() {
			ferr = wb.FlushIntersecting(union)
		}
		if err := f.agree(ferr); err != nil {
			return err
		}
	}

	// Only remote payloads cross the exchange: send[me] stays nil and
	// expect[me] false, on both sides of both directions.
	send := make([][]byte, size)
	sendBufs := make([]*Buf, size)
	expect := make([]bool, size)
	exchange := func() ([][]byte, error) {
		recv, err := f.comm.AlltoallvSparse(send, expect)
		for _, b := range sendBufs { // the messages are copies
			b.Release()
		}
		return recv, err
	}

	if write {
		// Phase 1: pack the pieces other ranks aggregate, one buffer per
		// owner, in my piece order; as aggregator, expect payload from
		// exactly the ranks whose pieces fall in my domain.
		fill := make([]int64, size)
		for owner, n := range bytesTo[me] {
			if owner != me && n > 0 {
				sendBufs[owner] = GetBuf(n)
				send[owner] = sendBufs[owner].B
			}
		}
		cur := pfs.Cursor{Mem: mem}
		for _, p := range myPlaced {
			if p.owner == me {
				cur.Skip(p.n)
				continue
			}
			cur.Move(send[p.owner][fill[p.owner]:fill[p.owner]+p.n], false)
			fill[p.owner] += p.n
		}
		for r := range expect {
			expect[r] = r != me && bytesTo[r][me] > 0
		}
		recv, err := exchange()
		if err != nil {
			return err
		}
		// Phase 2: as aggregator for domain `me`, overlay my own pieces
		// (straight from mem) and the received ones and write the
		// coalesced union back with large contiguous requests. All ranks
		// agree on the outcome so a server failure surfaces on every
		// member of the collective.
		return f.agree(f.aggregateWrite(placedBy, recv, mem))
	}

	// Read. Phase 1: as aggregator, fetch my domain's coalesced union
	// and carve out each other rank's pieces. Ranks must agree on
	// failure before the exchange phase: a rank that aborted here would
	// otherwise leave its peers blocked in Alltoallv forever.
	stage, err := f.aggregateRead(placedBy)
	if err = f.agree(err); err != nil {
		return err
	}
	defer stage.release()
	for r := range send {
		if n := bytesTo[r][me]; r != me && n > 0 {
			sendBufs[r] = GetBuf(n)
			send[r] = sendBufs[r].B
		}
	}
	_ = par.Do(workers, size, func(r int) error {
		if send[r] == nil {
			return nil
		}
		var at int64
		for _, p := range placedBy[r] {
			if p.owner == me {
				at += int64(copy(send[r][at:], stage.slice(p.fileOff, p.n)))
			}
		}
		return nil
	})
	// Expect payload from exactly the aggregators owning my pieces.
	for owner, n := range bytesTo[me] {
		expect[owner] = owner != me && n > 0
	}
	recv, err := exchange()
	if err != nil {
		return err
	}
	// Phase 2: fill mem in piece order — my own domain's pieces straight
	// from the staging buffer, the others from each aggregator's payload
	// (both sides walked the placed list in the same order).
	taken := make([]int64, size)
	cur := pfs.Cursor{Mem: mem}
	for _, p := range myPlaced {
		if p.owner == me {
			cur.Move(stage.slice(p.fileOff, p.n), true)
			continue
		}
		payload := recv[p.owner]
		if taken[p.owner]+p.n > int64(len(payload)) {
			return errors.New("mpiio: collective read reassembly underflow")
		}
		cur.Move(payload[taken[p.owner]:taken[p.owner]+p.n], true)
		taken[p.owner] += p.n
	}
	return nil
}

// agree is the error-agreement round of a collective operation: if the
// local phase failed on any rank, every rank returns an error (the
// local one where present, a peer report otherwise). Without this a
// rank that aborts between exchange phases would leave its peers
// blocked waiting for messages that will never arrive.
func (f *File) agree(opErr error) error {
	flag := []byte{0}
	if opErr != nil {
		flag[0] = 1
	}
	all, err := f.comm.Allgather(flag)
	if err != nil {
		if opErr != nil {
			return opErr
		}
		return err
	}
	for r, b := range all {
		if len(b) == 1 && b[0] != 0 {
			if opErr != nil {
				return opErr
			}
			return fmt.Errorf("mpiio: collective aborted: I/O failure on rank %d", r)
		}
	}
	return opErr
}

// carve produces the aggregation-domain partition of one collective
// (the aggregator count is clamp(totalBytes/stripe, 1, nranks) unless
// CBNodes overrides it).
func (f *File) carve(lo, hi, totalBytes int64) place.Domains {
	return place.ByteCyclic{}.Carve(place.Req{
		Lo:          lo,
		Hi:          hi,
		TotalBytes:  totalBytes,
		Ranks:       f.comm.Size(),
		CBNodes:     f.CBNodes,
		Stripe:      f.fs.StripeSize(),
		WriteBehind: f.WriteBehind != 0,
	})
}

// attrLocality charges the pfs domain-locality counters for the pieces
// this rank aggregates: a piece is domain-local when the rank that
// requested it IS the aggregator serving it (no exchange hop).
// Accounting only — no service time.
func (f *File) attrLocality(placedBy [][]placed) {
	me := f.comm.Rank()
	for r, pl := range placedBy {
		for _, p := range pl {
			if p.owner == me {
				f.fs.AttrLocality(p.fileOff, p.n, r == me)
			}
		}
	}
}

// domainRuns returns the coalesced union of the pieces every rank
// placed in domain `owner` — exactly the bytes its aggregator must
// transfer, sorted and non-overlapping.
func domainRuns(owner int, placedBy [][]placed) []pfs.Run {
	var runs []pfs.Run
	for _, pl := range placedBy {
		for _, p := range pl {
			if p.owner == owner {
				runs = append(runs, pfs.Run{Off: p.fileOff, Len: p.n})
			}
		}
	}
	return pfs.Coalesce(runs)
}

// capRuns splits runs into requests of at most cb bytes (cb <= 0 means
// uncapped), preserving order.
func capRuns(runs []pfs.Run, cb int64) []pfs.Run {
	if cb <= 0 {
		return runs
	}
	var out []pfs.Run
	for _, r := range runs {
		for off := int64(0); off < r.Len; off += cb {
			n := cb
			if off+n > r.Len {
				n = r.Len - off
			}
			out = append(out, pfs.Run{Off: r.Off + off, Len: n})
		}
	}
	return out
}

// staging is an aggregator's phase-1 buffer: the domain's coalesced
// union runs packed back-to-back, exactly the layout ReadV/WriteV use.
// It holds precisely the domain's bytes — no span-sized allocation, so
// the cyclic carving (whose domains interleave across nearly the whole
// collective span) costs the same memory as the span carving.
type staging struct {
	runs   []pfs.Run
	start  []int64 // packed offset of runs[i]
	data   []byte
	pooled *Buf // data's owner, nil when data was allocated for keeps
}

// newStaging lays out runs. A pooled staging buffer has unspecified
// contents (the caller fills every byte before reading any) and goes
// back with release; an unpooled one is the caller's to give away.
func newStaging(runs []pfs.Run, pooled bool) *staging {
	s := &staging{runs: runs, start: make([]int64, len(runs))}
	var at int64
	for i, r := range runs {
		s.start[i] = at
		at += r.Len
	}
	if pooled {
		s.pooled = GetBuf(at)
		s.data = s.pooled.B
	} else {
		s.data = make([]byte, at)
	}
	return s
}

// release returns a pooled staging buffer; s may be nil.
func (s *staging) release() {
	if s != nil {
		s.pooled.Release()
	}
}

// slice returns the packed sub-buffer of file range [off, off+n). The
// range always lies within one run: runs are the maximal contiguous
// blocks of the union, and every piece is a contiguous subset of it.
func (s *staging) slice(off, n int64) []byte {
	i := sort.Search(len(s.runs), func(k int) bool { return s.runs[k].Off > off }) - 1
	o := s.start[i] + (off - s.runs[i].Off)
	return s.data[o : o+n]
}

// aggregateRead performs this rank's phase-1 read: the coalesced union
// of its domain's requested extents, capped by CollectiveBufferSize
// and issued as ONE vectored ReadV — every per-server segment of the
// domain is queued up front, so service time overlaps across servers
// and the elevator sees the whole batch without needing workers. With
// clean caching on, the read goes through the unified cache instead:
// cached stripes (including other ranks' deferred dirty bytes) come
// from memory and only the holes are sieve-fetched, so a re-read of a
// warm domain touches no server at all. Either way every byte of the
// pooled staging buffer is overwritten; the caller releases it.
func (f *File) aggregateRead(placedBy [][]placed) (*staging, error) {
	runs := domainRuns(f.comm.Rank(), placedBy)
	if len(runs) == 0 {
		return nil, nil
	}
	s := newStaging(runs, true)
	// Capped runs pack back-to-back in exactly the staging layout (the
	// cap only splits runs, never reorders or drops bytes).
	capped := capRuns(runs, f.CollectiveBufferSize)
	var err error
	if c := f.sharedCache(); c != nil && c.caching() {
		err = c.ReadThrough(capped, Contig(s.data))
	} else {
		_, err = f.fs.ReadV(capped, s.data)
	}
	if err != nil {
		s.release()
		return nil, err
	}
	return s, nil
}

// aggregateWrite overlays every rank's pieces for this rank's domain
// onto the packed staging buffer — this rank's own straight from mem,
// the others from their received payloads — then either absorbs the
// coalesced union into the shared write-behind cache (WriteBehind
// enabled — dispatch is deferred to a flush sweep) or writes it back
// immediately as ONE vectored WriteV of the capped runs. Every byte of
// the union is covered by some rank's piece, so no read-modify-write
// round is needed, the gaps between runs are never touched, and the
// staging buffer's prior contents never reach a server. Overlapping
// writes resolve in rank order (higher rank wins), a deterministic
// refinement of MPI's "undefined".
func (f *File) aggregateWrite(placedBy [][]placed, recv [][]byte, mem Vec) error {
	me := f.comm.Rank()
	runs := domainRuns(me, placedBy)
	if len(runs) == 0 {
		return nil
	}
	// Absorb aliases the staging runs as the cache's dirty extents, so
	// under write-behind the buffer is the cache's, not the pool's.
	s := newStaging(runs, f.WriteBehind == 0)
	defer s.release()
	for r, pl := range placedBy {
		if r == me {
			cur := pfs.Cursor{Mem: mem}
			for _, p := range pl {
				if p.owner == me {
					cur.Move(s.slice(p.fileOff, p.n), false)
				} else {
					cur.Skip(p.n)
				}
			}
			continue
		}
		payload := recv[r]
		var cursor int64
		for _, p := range pl {
			if p.owner != me {
				continue
			}
			if cursor+p.n > int64(len(payload)) {
				return errors.New("mpiio: collective write overlay underflow")
			}
			copy(s.slice(p.fileOff, p.n), payload[cursor:cursor+p.n])
			cursor += p.n
		}
	}
	if f.WriteBehind != 0 {
		w := f.cache()
		for i, r := range runs {
			w.Absorb(r.Off, s.data[s.start[i]:s.start[i]+r.Len])
		}
		// The memory budget caps clean + dirty: over it, clean extents
		// evict and LRU dirty extents flush-on-evict.
		if err := w.EnforceBudget(); err != nil {
			return err
		}
		if f.WriteBehind > 0 && w.Bytes() >= f.WriteBehind {
			return w.FlushAll()
		}
		return nil
	}
	// The packed staging layout is exactly WriteV's: one vectored call
	// dispatches every per-server segment of the domain at once. The
	// post-write punch closes the sieve-fetch race exactly as on the
	// independent path (File.postWrite).
	if _, err := f.fs.WriteV(capRuns(runs, f.CollectiveBufferSize), s.data); err != nil {
		return err
	}
	return f.postWrite(runs)
}

// --- run wire encoding (fixed 16 bytes per run) ---

func encodeRuns(runs []pfs.Run) []byte {
	out := make([]byte, 0, len(runs)*16)
	for _, r := range runs {
		out = binary.LittleEndian.AppendUint64(out, uint64(r.Off))
		out = binary.LittleEndian.AppendUint64(out, uint64(r.Len))
	}
	return out
}

func decodeRuns(b []byte) ([]pfs.Run, error) {
	if len(b)%16 != 0 {
		return nil, fmt.Errorf("mpiio: run list of %d bytes", len(b))
	}
	runs := make([]pfs.Run, len(b)/16)
	for i := range runs {
		runs[i].Off = int64(binary.LittleEndian.Uint64(b[i*16:]))
		runs[i].Len = int64(binary.LittleEndian.Uint64(b[i*16+8:]))
		if runs[i].Off < 0 || runs[i].Len <= 0 {
			return nil, fmt.Errorf("mpiio: invalid run %+v", runs[i])
		}
	}
	return runs, nil
}
