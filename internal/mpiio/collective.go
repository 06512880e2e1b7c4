package mpiio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
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
// domains, one per aggregator. Where ROMIO takes the aggregator count
// as its "cb_nodes" hint, here it is a rule: one aggregator per stripe
// of payload, clamped to [1, nranks]. Every rank allgathers its file
// runs, carves the same domains from the replicated lists and cuts
// every rank's runs into pieces at domain boundaries (placePieces) — so
// both sides of every transfer below know the layout without another
// message.
//
// Who copies what. A caller hands the collective its file runs and its
// memory as an ordered vector of segments (ReadAllV/WriteAllV; a
// contiguous buffer is the one-segment vector Contig). Each byte then moves twice on this rank, plus the hop only
// remote bytes take:
//
//	write:  caller's memory ──copy──▶ aggregator staging ──WriteV──▶ servers
//	read:   servers ──ReadV──▶ aggregator staging ──copy──▶ caller's memory
//
// A piece whose aggregator is the calling rank takes exactly that path:
// it is copied straight between the caller's segments and the staging
// buffer and never enters the exchange. Only a piece owned by another
// rank is packed into a per-peer send buffer, crosses
// cluster.AlltoallvSparse by hand-off (the send buffer itself becomes
// the receiver's payload, uncopied) and is copied out of that payload
// on the far side. The staging
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
// poisoned-pool tests hold both to it). A send buffer goes to its
// receiver: the exchange hands it over, and the sender never touches it
// again. The receiver returns every payload it got to the pool once
// Phase 2 has consumed it, in both directions, so in the steady state a
// remote piece allocates nothing — the pool that fed the sender refills
// on the receiver. A staging buffer returns when the aggregate write
// has landed or the last piece has been copied out of it.
//
// GOMAXPROCS workers (internal/par) fan out the stages whose items are
// independent — carving each rank's pieces, packing each peer's read
// payload; moving the caller's own bytes is one ordered walk over its
// vector. Workers only touch disjoint buffers and the communicator
// collectives — Allgather, the sparse exchange, the agree round — stay
// in one fixed order on every rank, so the worker count is invisible to
// the data and to the error-agreement semantics.
//
// With a cache budget both sides go through the file's SHARED extent
// cache (filecache.go — one cache per store, used by every rank's
// handle). Each aggregator writes its domain as a direct write of the
// cache (File.WriteV), which updates the cached copies of its bytes and
// lends the store write the cached bytes of its holes; the domains
// partition the collective's union, so no older cached byte of it
// survives. aggregateRead serves cached stripes from memory and
// sieve-fetches only the holes, so a collective read needs no coherence
// round of its own.

// Buf is a byte buffer from the package's pool. B has the requested
// length and UNSPECIFIED contents: the taker overwrites every byte it
// later reads.
type Buf struct{ B []byte }

// bufPool holds the collective's staging buffers, the exchange payloads
// its receivers hand back (recycle) and drxmp's section scratch. A
// buffer too small for its taker is regrown in place, so the pool
// converges on the largest transfer in flight.
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

// recycle returns the payloads a sparse exchange handed this rank to
// the pool, once Phase 2 has consumed them: the senders gave them up,
// so the pool that fed a sender refills here. recv[me] is the caller's
// own send[me] and is never taken.
func recycle(recv [][]byte, me int) {
	for r, p := range recv {
		if r != me && p != nil {
			bufPool.Put(&Buf{B: p})
		}
	}
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
// lengths. On error the contents of mem are unspecified.
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
// pieces. Adjacent pieces of the run with the same owner merge.
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
	// same carving from the allgathered span, so the placement agrees
	// everywhere without another round. The aggregator count is the
	// carving's domain count.
	dom := f.carve(lo, hi, totalBytes)
	size := f.comm.Size()
	me := f.comm.Rank()
	workers := runtime.GOMAXPROCS(0)

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

	// Only remote payloads cross the exchange: send[me] stays nil and
	// expect[me] false, on both sides of both directions. The exchange
	// hands every send buffer to its receiver, which returns it to the
	// pool once Phase 2 has consumed it (recycle).
	send := make([][]byte, size)
	expect := make([]bool, size)

	if write {
		// Phase 1: pack the pieces other ranks aggregate, one buffer per
		// owner, in my piece order; as aggregator, expect payload from
		// exactly the ranks whose pieces fall in my domain.
		fill := make([]int64, size)
		for owner, n := range bytesTo[me] {
			if owner != me && n > 0 {
				send[owner] = GetBuf(n).B
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
		recv, err := f.comm.AlltoallvSparse(send, expect)
		if err != nil {
			return err
		}
		// Phase 2: as aggregator for domain `me`, overlay my own pieces
		// (straight from mem) and the received ones and write the
		// coalesced union back with large contiguous requests. All ranks
		// agree on the outcome so a server failure surfaces on every
		// member of the collective.
		err = f.aggregateWrite(placedBy, recv, mem)
		recycle(recv, me)
		return f.agree(err)
	}

	// Read. Phase 1: as aggregator, fetch my domain's coalesced union
	// and carve out each other rank's pieces. Ranks must agree on
	// failure before the exchange phase: a rank that aborted here would
	// otherwise leave its peers blocked in the exchange forever.
	stage, err := f.aggregateRead(placedBy)
	if err = f.agree(err); err != nil {
		return err
	}
	defer stage.release()
	for r := range send {
		if n := bytesTo[r][me]; r != me && n > 0 {
			send[r] = GetBuf(n).B
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
	recv, err := f.comm.AlltoallvSparse(send, expect)
	if err != nil {
		return err
	}
	defer recycle(recv, me)
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
// (the aggregator count is clamp(totalBytes/stripe, 1, nranks)).
func (f *File) carve(lo, hi, totalBytes int64) place.Domains {
	return place.ByteCyclic{}.Carve(place.Req{
		Lo:         lo,
		Hi:         hi,
		TotalBytes: totalBytes,
		Ranks:      f.comm.Size(),
		Stripe:     f.fs.StripeSize(),
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
	n := 0
	for _, pl := range placedBy {
		for _, p := range pl {
			if p.owner == owner {
				n++
			}
		}
	}
	runs := make([]pfs.Run, 0, n)
	for _, pl := range placedBy {
		for _, p := range pl {
			if p.owner == owner {
				runs = append(runs, pfs.Run{Off: p.fileOff, Len: p.n})
			}
		}
	}
	return pfs.Coalesce(runs)
}

// staging is an aggregator's phase-1 buffer: the domain's coalesced
// union runs packed back-to-back, exactly the layout ReadV/WriteV use.
// It holds precisely the domain's bytes — no span-sized allocation.
type staging struct {
	runs   []pfs.Run
	start  []int64 // packed offset of runs[i]
	data   []byte
	pooled *Buf // data's owner
}

// newStaging lays out runs over a pooled buffer, which has unspecified
// contents (the caller fills every byte before reading any) and goes
// back with release.
func newStaging(runs []pfs.Run) *staging {
	s := &staging{runs: runs, start: make([]int64, len(runs))}
	var at int64
	for i, r := range runs {
		s.start[i] = at
		at += r.Len
	}
	s.pooled = GetBuf(at)
	s.data = s.pooled.B
	return s
}

// release returns the staging buffer to the pool; s may be nil.
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
// of its domain's requested extents, issued as ONE vectored ReadV —
// every per-server segment of the domain is queued up front, so service
// time overlaps across servers and the elevator sees the whole batch
// without needing workers. With a cache budget, the read goes through
// the unified cache instead: cached stripes come from memory and only
// the holes are sieve-fetched, so a re-read of a warm domain touches no server at
// all. Either way every byte of the pooled staging buffer is
// overwritten; the caller releases it.
func (f *File) aggregateRead(placedBy [][]placed) (*staging, error) {
	runs := domainRuns(f.comm.Rank(), placedBy)
	if len(runs) == 0 {
		return nil, nil
	}
	s := newStaging(runs)
	var err error
	if f.fc != nil {
		err = f.fc.ReadThrough(runs, Contig(s.data))
	} else {
		_, err = f.fs.ReadV(runs, s.data)
	}
	if err != nil {
		s.release()
		return nil, err
	}
	return s, nil
}

// aggregateWrite overlays every rank's pieces for this rank's domain
// onto the packed staging buffer — this rank's own straight from mem,
// the others from their received payloads — then writes the coalesced
// union back as ONE vectored WriteV of the runs. Every byte of
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
	s := newStaging(runs)
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
	// The packed staging layout is exactly WriteV's: one vectored call
	// dispatches every per-server segment of the domain at once, and the
	// cache's clean copies of the domain take its bytes as on the
	// independent path.
	return f.WriteV(runs, Contig(s.data))
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

// decodeRuns parses a peer's run list. Every run it returns has
// Off >= 0, Len > 0 and an end that fits in an int64, so the collective's
// span and domain arithmetic cannot wrap.
func decodeRuns(b []byte) ([]pfs.Run, error) {
	if len(b)%16 != 0 {
		return nil, fmt.Errorf("mpiio: run list of %d bytes", len(b))
	}
	runs := make([]pfs.Run, len(b)/16)
	for i := range runs {
		runs[i].Off = int64(binary.LittleEndian.Uint64(b[i*16:]))
		runs[i].Len = int64(binary.LittleEndian.Uint64(b[i*16+8:]))
		if r := runs[i]; r.Off < 0 || r.Len <= 0 || r.Off > math.MaxInt64-r.Len {
			return nil, fmt.Errorf("mpiio: invalid run %+v", r)
		}
	}
	return runs, nil
}
