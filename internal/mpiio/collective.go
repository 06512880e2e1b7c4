package mpiio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"drxmp/internal/par"
	"drxmp/internal/pfs"
	"drxmp/internal/place"
)

// Two-phase collective I/O (the ROMIO technique referenced through the
// paper's citation [25], "Noncontiguous I/O accesses through MPI-IO").
//
// Phase assignment: the placement policy (File.Placement, internal/
// place; stripe-aligned ByteCyclic unless another is named) splits the
// byte range touched by any process into aggregation domains, one per
// aggregator. The aggregator count is the ROMIO "cb_nodes" analogue:
// adaptive by default (ByteCyclic: one aggregator per stripe of
// payload, clamped to [1, nranks]) with an explicit File.CBNodes
// override, so small collectives
// funnel through few aggregators — fewer, larger, elevator-friendly
// server requests — while large ones keep full fan-out. In a read, each
// aggregator fetches the coalesced union of its domain's requested
// extents with large contiguous requests and ships the pieces wanted by
// each process; in a write, each process ships its pieces to the owning
// aggregators, which overlay them and write the coalesced union back —
// no read-modify-write round is needed, because every byte of the union
// is covered by some rank's piece. This turns many small interleaved
// requests into a few streaming ones — exactly the effect experiment E5
// measures against independent I/O.
//
// The aggregate phase is vectored: each aggregator issues its capped
// runs as ONE pfs.ReadV/WriteV call, so every per-server segment of
// the whole domain is queued up front and the server queues (and the
// elevator's reorder window) see the full batch without needing wide
// File.Parallelism. Workers (internal/par, File.Parallelism) still fan
// out the per-peer piece carving/reassembly of the exchange phase
// (disjoint buffers). The communicator collectives — Allgather, the
// sparse exchange, and the agree round — stay in the same fixed order
// on every rank, so the parallel path is byte-identical to the serial
// one and the error-agreement semantics are unchanged.
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

// ReadAllAt is the collective read: every rank of the communicator must
// call it (ranks with nothing to read pass an empty buf). Each rank
// reads len(buf) view bytes at its own viewOff through its own view.
func (f *File) ReadAllAt(buf []byte, viewOff int64) error {
	return f.collective(buf, viewOff, false)
}

// WriteAllAt is the collective write counterpart of ReadAllAt.
func (f *File) WriteAllAt(buf []byte, viewOff int64) error {
	return f.collective(buf, viewOff, true)
}

// placed is one run fragment with its aggregation-domain owner, file
// extent, and position in the owning rank's packed transfer buffer.
// Both sides of every exchange walk a rank's placed list in the same
// order, so payload layouts agree without further communication.
type placed struct {
	owner   int
	fileOff int64
	bufOff  int64
	n       int64
}

// placePieces cuts a rank's runs at domain boundaries and assigns each
// piece its packed-buffer position (runs pack back-to-back in order).
func placePieces(dom place.Domains, runs []pfs.Run) []placed {
	var out []placed
	var cursor int64
	for _, run := range runs {
		for _, p := range splitRun(dom, run) {
			out = append(out, placed{owner: p.owner, fileOff: p.run.Off, bufOff: cursor, n: p.run.Len})
			cursor += p.run.Len
		}
	}
	return out
}

// ownedBytes sums the payload bytes of pl that belong to owner.
func ownedBytes(pl []placed, owner int) int64 {
	var n int64
	for _, p := range pl {
		if p.owner == owner {
			n += p.n
		}
	}
	return n
}

// sparseExchange is the exchange round of the two-phase collective:
// cluster.AlltoallvSparse with the pair pattern derived from the
// replicated placement lists, so only non-empty rank↔aggregator
// payloads cross the wire. This is what makes aggregator funneling
// (cb_nodes < nranks) pay off for small collectives: the exchange
// touches aggregator pairs only, instead of the full rank mesh.
func (f *File) sparseExchange(send [][]byte, expect []bool) ([][]byte, error) {
	return f.comm.AlltoallvSparse(send, expect)
}

func (f *File) collective(buf []byte, viewOff int64, write bool) error {
	if viewOff < 0 {
		return fmt.Errorf("mpiio: negative view offset %d", viewOff)
	}
	var myRuns []pfs.Run
	if len(buf) > 0 {
		myRuns = f.runsFor(viewOff, int64(len(buf)))
	}
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
	// same carving from the allgathered run lists (and the shared
	// placement policy + CBNodes setting), so the placement agrees
	// everywhere without another round. The aggregator count is the
	// policy's domain count.
	dom := f.carve(lo, hi, totalBytes, runsByRank)
	size := f.comm.Size()
	me := f.comm.Rank()
	workers := f.workers()

	// Place every rank's pieces once; every later stage walks these
	// lists instead of re-splitting runs.
	placedBy := make([][]placed, size)
	_ = par.Do(workers, size, func(r int) error {
		placedBy[r] = placePieces(dom, runsByRank[r])
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

	if write {
		// Phase 1: ship my bytes to the owning aggregators, split at
		// domain boundaries, in my run order (one worker per peer; each
		// builds one disjoint send buffer).
		send := make([][]byte, size)
		_ = par.Do(workers, size, func(owner int) error {
			n := ownedBytes(myPlaced, owner)
			if n == 0 {
				return nil
			}
			out := make([]byte, 0, n)
			for _, p := range myPlaced {
				if p.owner == owner {
					out = append(out, buf[p.bufOff:p.bufOff+p.n]...)
				}
			}
			send[owner] = out
			return nil
		})
		// As aggregator, expect payload from exactly the ranks whose
		// placement lists put pieces in my domain.
		expect := make([]bool, size)
		for r := 0; r < size; r++ {
			expect[r] = ownedBytes(placedBy[r], me) > 0
		}
		recv, err := f.sparseExchange(send, expect)
		if err != nil {
			return err
		}
		// Phase 2: as aggregator for domain `me`, overlay the received
		// pieces and write the coalesced union back with large
		// contiguous requests. All ranks agree on the outcome so a
		// server failure surfaces on every member of the collective.
		return f.agree(f.aggregateWrite(dom, placedBy, recv))
	}

	// Read. Phase 1: as aggregator, fetch my domain's coalesced union
	// and carve out each rank's pieces. Ranks must agree on failure
	// before the exchange phase: a rank that aborted here would
	// otherwise leave its peers blocked in Alltoallv forever.
	stage, err := f.aggregateRead(dom, placedBy)
	if err = f.agree(err); err != nil {
		return err
	}
	send := make([][]byte, size)
	_ = par.Do(workers, size, func(r int) error {
		n := ownedBytes(placedBy[r], me)
		if n == 0 {
			return nil
		}
		out := make([]byte, 0, n)
		for _, p := range placedBy[r] {
			if p.owner == me {
				out = append(out, stage.slice(p.fileOff, p.n)...)
			}
		}
		send[r] = out
		return nil
	})
	// Expect payload from exactly the aggregators owning my pieces.
	expect := make([]bool, size)
	for owner := 0; owner < size; owner++ {
		expect[owner] = ownedBytes(myPlaced, owner) > 0
	}
	recv, err := f.sparseExchange(send, expect)
	if err != nil {
		return err
	}
	// Phase 2: reassemble my buffer, consuming each aggregator's payload
	// in run order (both sides walk the placed list in the same order;
	// one worker per aggregator, writing disjoint buffer pieces).
	return par.Do(workers, size, func(owner int) error {
		payload := recv[owner]
		var cursor int64
		for _, p := range myPlaced {
			if p.owner != owner {
				continue
			}
			if cursor+p.n > int64(len(payload)) {
				return errors.New("mpiio: collective read reassembly underflow")
			}
			copy(buf[p.bufOff:p.bufOff+p.n], payload[cursor:cursor+p.n])
			cursor += p.n
		}
		return nil
	})
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

// carve produces the aggregation-domain partition of one collective:
// the placement policy carves, and resolves the aggregator count from
// its own domain structure (ByteCyclic counts payload stripes,
// chunk-aware policies count chunk groups).
func (f *File) carve(lo, hi, totalBytes int64, runsByRank [][]pfs.Run) place.Domains {
	return f.Placement.Carve(place.Req{
		Lo:          lo,
		Hi:          hi,
		TotalBytes:  totalBytes,
		Ranks:       f.comm.Size(),
		CBNodes:     f.CBNodes,
		Stripe:      f.fs.StripeSize(),
		WriteBehind: f.WriteBehind != 0,
		Geom:        f.PlaceGeom,
		Runs:        runsByRank,
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

// piece is a run fragment assigned to one aggregation domain.
type piece struct {
	owner int
	run   pfs.Run
}

// splitRun cuts a run at domain boundaries, in offset order, for ANY
// carving. Zero-length runs produce no pieces. Adjacent pieces with
// the same owner merge (under the cyclic carving with one aggregator,
// every block has the same owner).
func splitRun(d place.Domains, run pfs.Run) []piece {
	var out []piece
	off, remaining := run.Off, run.Len
	for remaining > 0 {
		owner := d.Owner(off)
		end := d.BlockEnd(off)
		take := end - off
		if take > remaining {
			take = remaining
		}
		if m := len(out) - 1; m >= 0 && out[m].owner == owner &&
			out[m].run.Off+out[m].run.Len == off {
			out[m].run.Len += take
		} else {
			out = append(out, piece{owner: owner, run: pfs.Run{Off: off, Len: take}})
		}
		off += take
		remaining -= take
	}
	return out
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
	runs  []pfs.Run
	start []int64 // packed offset of runs[i]
	data  []byte
}

func newStaging(runs []pfs.Run) *staging {
	s := &staging{runs: runs, start: make([]int64, len(runs))}
	var at int64
	for i, r := range runs {
		s.start[i] = at
		at += r.Len
	}
	s.data = make([]byte, at)
	return s
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
// warm domain touches no server at all.
func (f *File) aggregateRead(dom place.Domains, placedBy [][]placed) (*staging, error) {
	runs := domainRuns(f.comm.Rank(), placedBy)
	if len(runs) == 0 {
		return nil, nil
	}
	s := newStaging(runs)
	// Capped runs pack back-to-back in exactly the staging layout (the
	// cap only splits runs, never reorders or drops bytes).
	capped := capRuns(runs, f.CollectiveBufferSize)
	if c := f.sharedCache(); c != nil && c.caching() {
		if err := c.ReadThrough(capped, s.data); err != nil {
			return nil, err
		}
		return s, nil
	}
	if _, err := f.fs.ReadV(capped, s.data); err != nil {
		return nil, err
	}
	return s, nil
}

// aggregateWrite overlays every rank's pieces for this rank's domain
// onto the packed staging buffer, then either absorbs the coalesced
// union into the shared write-behind cache (WriteBehind enabled —
// dispatch is deferred to a flush sweep) or writes it back immediately
// as ONE vectored WriteV of the capped runs. Every byte of the union is covered by
// some rank's piece, so no read-modify-write round is needed and the
// gaps between runs are never touched. Overlapping writes resolve in
// rank order (higher rank wins), a deterministic refinement of MPI's
// "undefined".
func (f *File) aggregateWrite(dom place.Domains, placedBy [][]placed, recv [][]byte) error {
	me := f.comm.Rank()
	runs := domainRuns(me, placedBy)
	if len(runs) == 0 {
		return nil
	}
	s := newStaging(runs)
	for r, pl := range placedBy {
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
			// The staging buffer is private to this collective, so the
			// cache may alias its run slices instead of copying.
			w.Absorb(r.Off, s.data[s.start[i]:s.start[i]+r.Len])
		}
		// The memory budget caps clean + dirty: over it, clean extents
		// evict and LRU dirty extents flush-on-evict.
		if err := w.EnforceBudget(); err != nil {
			return err
		}
		if f.WriteBehind > 0 && w.Bytes() >= f.WriteBehind {
			// Elected flushers: instead of every watermark-crossing rank
			// racing a global FlushAll (partial, interleaved sweeps over
			// regions other ranks are still filling), each rank sweeps
			// only the file regions the placement assigns it — its own
			// absorbs are complete at this point, so elected sweeps are
			// full contiguous region slabs.
			if owned := f.flushOwned(); owned != nil {
				return w.FlushOwned(owned)
			}
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
