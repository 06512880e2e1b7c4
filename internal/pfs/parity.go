// parity.go implements erasure-coded striping across the simulated I/O
// servers: Reed-Solomon k+m parity maintenance on the write path and a
// straggler-avoiding degraded read path, in the mold of the
// hdpsr/Grasure designs (straggler deadline, fastest-k
// reconstruction).
//
// Layout. With Options.Parity = m > 0 on n servers, parity row r is
// the k = n-m consecutive stripe units rk..rk+k-1 — its data shards
// 0..k-1 — and m coded units, its shards k..n-1. Shard i of row r lives
// on server (i + r) mod n (serverOf; shardOf inverts it), at
// server-local offset r*StripeSize on every server of the row. The
// coded units rotate, left-symmetric as in RAID-5 (Patterson, Gibson &
// Katz, SIGMOD 1988): each server holds coded units in m of any n
// consecutive rows and data in the rest, so a dead server holds 1/n of
// the data, not 1/k, and every survivor serves reads and rebuilds
// alike. Every site that maps a shard to a server and back goes through
// serverOf and shardOf: locate (pfs.go) and holeRuns (queue.go), the
// coded units' loads and writes, the rebuild's shard tables. A failed
// read segment's row is its local offset over the stripe, which is what
// lets the degraded path turn it straight into a reconstruction over
// the row's other servers. With parity 0 a row is one striping round
// in server order, the layout of a store without parity.
//
// Writes. Parity follows a write by delta, the RAID small-write
// read-modify-write: for every data segment stored,
// P_j ^= c_jt·(D_t' ⊕ D_t) over exactly the bytes it stored, in each of
// the m coded units of its row. The pre-image D_t is captured by the
// server: it loads the bytes a segment is about to overwrite into the
// dispatch's pre slab under the same lock hold as the store. After the
// dispatch the writer XORs its new bytes in to form the deltas, loads
// the touched span of each touched row's m stored coded units — the
// union of the in-unit ranges its segments stored in the row, one span
// for all m — adds the deltas in (ec.Code.Update) and dispatches the
// spans as ordinary (charged, injectable) writes to the servers that
// hold them. The work is m × the payload instead of a k-unit re-encode
// of every touched row. Coded unit j of row r and coded unit j-1 of row
// r+1 share a server at touching offsets, so whole they are one
// request: where an update touches both, each runs to their common
// edge, and a run of touching units is trimmed at its two ends only.
// The device sees every request and seek a whole-unit update would
// make, and only the bytes between. The loads — pre-images, coded
// spans, a re-encode's data units — model the parity engine's
// server-local read-modify-write, not client traffic: they are counted
// in ServerStats.ParityLoads, not charged as requests.
//
// Why concurrent writers agree. The code is linear, so deltas apply in
// any order; and since a pre-image is taken atomically with its store,
// the deltas of any interleaving of writes to one byte telescope —
// (D0⊕D1) ⊕ (D1⊕D2) ⊕ … — to the XOR of its first and last stored
// values. parityMu serializes the coded units' load-add-store, so every
// delta lands exactly once, whichever writer lands it first.
//
// The exceptions: whole-row re-encode. Parity always describes stored
// bytes, and two kinds of row are re-encoded whole from their stored
// data units instead. The torn-write rule: a data dispatch that failed
// has still landed the segments ahead of the failure, and a segment
// that failed in service may have landed in part, so every row the
// write attempted is re-encoded before the dispatch error returns —
// otherwise the next degraded read of an untouched neighbour unit in
// such a row would decode garbage and report success. The stale rule: a
// row whose coded units may not have landed, because its parity
// dispatch or load failed, is kept in fs.stale and re-encoded by the
// next write, whichever rows that write touches. A re-encode reads
// stored bytes, so it must not run while a writer has stored bytes
// whose delta has not landed: that delta would count twice. parityGate
// orders the two: a data write holds it shared from before its
// dispatch until its deltas land, a re-encode holds it exclusively.
//
// Row buffers. An update works out of the store's parityScratch, which
// parityMu guards: k stripe units the data of a re-encoded row is
// loaded into, reused row after row; m coded units per row of the
// batch, which the parity dispatch reads from and has finished with
// when it returns; and the batch's per-row spans. The pre slab belongs
// to the data write's dispatch and is pooled with it.
//
// Degraded reads. A segment that is refused by the failure injector,
// errors in service, or exceeds the straggler deadline
// (degradedReadFactor × the nominal max per-server service time,
// RealTime cost models only) is reconstructed: the same byte sub-range
// of the row's other shards is taken from the fastest k of the
// remaining k+m-1 servers (ranked by slow factor, then requests queued,
// then the shard order of the row, so a rebuild of a data unit takes
// the row's data shards before its coded ones),
// and the missing shard is decoded straight into the caller's buffer —
// byte-range decoding works because Reed-Solomon over GF(2^8) is
// bytewise. (A caller's vector that is not one contiguous buffer is
// assembled in the dispatch's staging buffer and copied out once.) A
// source that a served segment of the read holds whole is taken from
// the read's bytes. A refused segment is known before anything is
// queued, so the read's own dispatch fetches its other sources
// (foldSources): each is one more read segment on its server, which the
// server joins with the read's own segments into their requests. What
// that cannot rebuild — a segment that failed in service or missed the
// deadline, one whose planned sources did not all arrive, every one
// when a write overlapped the read — is folded again after the read:
// foldSources plans its sources into a dispatch of their own, and a
// server that fails that pass is barred from the next (reconstructSegs).
// The deadline cuts lists, not calls: when it fires, every segment a
// server has marked served is kept, the rest of the slowest servers'
// lists are stragglers, and the read waits for the other late lists
// (awaitLate). Segments are read in place unless a deadline is armed;
// only then can a list be abandoned, and only then do the servers read
// into a private slab, so a straggler's late completions land in memory
// nobody reads — and the dispatch they belong to is never reused. A
// degraded read's working memory (reconScratch) rides on its dispatch,
// so it is pooled with it. A rebuild holds parityGate exclusively, so
// no write is halfway through the rows it decodes, and the read's own
// served segments and fetches seed it only if no data write overlapped
// the read (writesBegun, writesEnded). A straggler whose rows cannot be
// rebuilt without it, because another of their shards failed too, is
// waited for instead of failing the read.
package pfs

import (
	"cmp"
	"crypto/subtle"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"drxmp/internal/ec"
)

// initParity validates the parity geometry and builds the codec.
// Called from Create and Open after withDefaults.
func (fs *FS) initParity() error {
	m := fs.opts.Parity
	if m < 0 {
		return fmt.Errorf("pfs: negative parity server count %d", m)
	}
	if m == 0 {
		return nil
	}
	k := fs.opts.Servers - m
	if k < 1 {
		return fmt.Errorf("pfs: parity %d leaves no data servers (servers %d)", m, fs.opts.Servers)
	}
	code, err := ec.New(k, m)
	if err != nil {
		return fmt.Errorf("pfs: %w", err)
	}
	fs.code = code
	return nil
}

// dataServers returns the number of data units in a row: every server
// without parity, k = Servers-Parity with it.
func (fs *FS) dataServers() int { return fs.opts.Servers - fs.opts.Parity }

// serverOf returns the server holding shard i of row r: data shards
// 0..k-1, coded shards k..n-1. Without parity a row is the k = n units
// of one striping round, in server order. With it, shard i of row r
// lives on server (i + r) mod n, so the coded units rotate over every
// server, m of any n consecutive rows each.
func (fs *FS) serverOf(r int64, i int) int {
	if fs.opts.Parity == 0 {
		return i
	}
	return int((int64(i) + r) % int64(fs.opts.Servers))
}

// shardOf returns the shard of row r that server s holds: the inverse
// of serverOf.
func (fs *FS) shardOf(r int64, s int) int {
	if fs.opts.Parity == 0 {
		return s
	}
	n := int64(fs.opts.Servers)
	return int((int64(s) - r%n + n) % n)
}

// parityRowBatch bounds how many rows one parity sweep encodes before
// dispatching, which bounds the coded-unit buffers held in memory for
// huge writes.
const parityRowBatch = 64

// parityScratch is updateParity's working memory, regrown on demand.
type parityScratch struct {
	buf    []byte     // k data units, then m coded units per row of a batch
	mem    Vec        // buf, as the parity writes' memory vector
	shards [][]byte   // the k+m view of the row being coded
	rows   []int64    // the rows of the update
	spans  [][2]int64 // parityBatch: each row's in-unit range [lo, hi) to update
}

// parityRows appends to rows the parity rows intersecting runs,
// ascending and unique. Runs arrive sorted from every caller in the
// tree, so the sort is the exception.
func parityRows(rows []int64, runs []Run, rowBytes int64) []int64 {
	sorted := true
	for _, r := range runs {
		if r.Len <= 0 {
			continue
		}
		for row := r.Off / rowBytes; row <= (r.Off+r.Len-1)/rowBytes; row++ {
			if n := len(rows); n > 0 {
				if row == rows[n-1] {
					continue
				}
				sorted = sorted && row > rows[n-1]
			}
			rows = append(rows, row)
		}
	}
	if !sorted {
		slices.Sort(rows)
		rows = slices.Compact(rows)
	}
	return rows
}

// writeCoded dispatches the data write d of runs with the pre-images
// captured, then brings parity up to date: by delta when every segment
// landed and no row is stale, else by re-encoding whole rows — those
// the write attempted and every stale one — under the exclusive gate.
// It returns the data dispatch's outcome and the parity update's error.
func (fs *FS) writeCoded(d *dispatch, runs []Run) (done int64, err, perr error) {
	var total int64
	d.at = d.at[:0]
	for i := range d.segs {
		d.at = append(d.at, total)
		total += d.segs[i].n
	}
	d.pre = slices.Grow(d.pre[:0], int(total))[:total]
	d.capture = true
	rowBytes := int64(fs.code.K()) * fs.opts.StripeSize

	fs.parityGate.RLock()
	fs.writesBegun.Add(1)
	fs.submit(d, 0)
	done, err = d.outcome()
	if len(d.fails) == 0 { // every segment landed: not torn
		d.deltas()
		fs.parityMu.Lock()
		if len(fs.stale) == 0 {
			fs.parity.rows = parityRows(fs.parity.rows[:0], runs, rowBytes)
			perr = fs.updateParity(fs.parity.rows, d)
			fs.parityMu.Unlock()
			fs.writesEnded.Add(1)
			fs.parityGate.RUnlock()
			fs.release(d)
			return done, err, perr
		}
		fs.parityMu.Unlock()
	}
	fs.writesEnded.Add(1)
	fs.parityGate.RUnlock()
	fs.release(d)

	fs.parityGate.Lock()
	defer fs.parityGate.Unlock()
	fs.parityMu.Lock()
	defer fs.parityMu.Unlock()
	rows := append(parityRows(fs.parity.rows[:0], runs, rowBytes), fs.stale...)
	slices.Sort(rows)
	fs.parity.rows, fs.stale = slices.Compact(rows), fs.stale[:0]
	return done, err, fs.updateParity(fs.parity.rows, nil)
}

// deltas turns every segment's pre-image into its delta: the XOR of
// the bytes the segment overwrote and the bytes it stored, which are
// still the caller's. The pre slab is laid out like the packed
// transfer, so that is one pass over the memory vector.
func (d *dispatch) deltas() {
	p := d.pre
	for mi := 0; len(p) > 0; mi++ {
		p = p[subtle.XORBytes(p, p, d.mem.Seg(mi)):]
	}
}

// updateParity writes the coded units of rows — ascending, unique — to
// their servers, parityRowBatch rows per dispatch. With deltas nil
// every row is re-encoded from its stored data units; otherwise each
// row's stored coded units are loaded and the deltas of deltas'
// segments in the row are added in. Rows whose coded units may not
// have landed are marked stale. The caller holds parityMu.
func (fs *FS) updateParity(rows []int64, deltas *dispatch) error {
	if len(rows) == 0 {
		return nil
	}
	k, m := fs.code.K(), fs.code.M()
	stripe := fs.opts.StripeSize
	sc := &fs.parity
	if need := (int64(k) + int64(min(len(rows), parityRowBatch)*m)) * stripe; int64(len(sc.buf)) < need {
		sc.buf = make([]byte, need)
		sc.mem = Contig(sc.buf)
	}
	if sc.shards == nil {
		sc.shards = make([][]byte, k+m)
	}
	for c := 0; c < k; c++ {
		sc.shards[c] = sc.buf[int64(c)*stripe : int64(c+1)*stripe]
	}
	for b := 0; b < len(rows); b += parityRowBatch {
		if err := fs.parityBatch(rows[b:min(len(rows), b+parityRowBatch)], deltas); err != nil {
			rest := rows[b:]
			fs.stale = append(fs.stale, rest...)
			slices.Sort(fs.stale)
			fs.stale = slices.Compact(fs.stale)
			return err
		}
	}
	return nil
}

// parityBatch codes one batch of rows into the scratch — coded unit j
// of the batch's row bi at(bi, j) bytes in — and dispatches them. A
// re-encode loads, codes and writes every unit whole. A delta update
// loads, updates and writes each coded unit over its row's touched
// span only: the union of the in-unit ranges of the row's delta
// segments, one span for all m units. Where a unit touches a coded unit
// of the batch's previous or next row on its server — unit j of row r
// and unit j-1 of row r+1 share a server at touching offsets — it runs
// to that edge, so a run of touching units is cut only at its two ends
// and stays the one request it is whole.
func (fs *FS) parityBatch(batch []int64, deltas *dispatch) error {
	k, m := fs.code.K(), fs.code.M()
	stripe := fs.opts.StripeSize
	sc := &fs.parity
	shards := sc.shards
	at := func(bi, j int) int64 { return int64(k+bi*m+j) * stripe }
	// A re-encode's spans are whole units; a delta update's grow from
	// empty over its segments.
	spans := grow(&sc.spans, len(batch))
	for bi := range spans {
		spans[bi] = [2]int64{0, stripe}
		if deltas != nil {
			spans[bi] = [2]int64{stripe, 0}
		}
	}
	if deltas != nil {
		for i := range deltas.segs {
			s := &deltas.segs[i]
			row := s.off / stripe
			if bi, ok := slices.BinarySearch(batch, row); ok {
				col := s.off - row*stripe
				spans[bi] = [2]int64{min(spans[bi][0], col), max(spans[bi][1], col+s.n)}
			}
		}
	}
	// The parity engine's local read-modify-write, not charged as
	// requests (ParityLoads counts it): a re-encode loads the row's stored
	// data units (holes read as zeros, and zero data encodes to zero
	// parity, so never-written rows stay consistent), a delta update the
	// spans of the row's stored coded units it writes back.
	d := fs.newDispatch(sc.mem, true)
	load := func(p []byte, s int, off int64) error {
		sv := fs.servers[s]
		sv.mu.Lock()
		defer sv.mu.Unlock()
		return sv.parityLoadLocked(p, off)
	}
	for bi, row := range batch {
		for j := 0; j < m; j++ {
			shards[k+j] = sc.buf[at(bi, j):][:stripe]
			lo, hi := spans[bi][0], spans[bi][1]
			if j+1 < m && bi > 0 && batch[bi-1] == row-1 {
				lo = 0 // touches unit j+1 of the row before
			}
			if j > 0 && bi+1 < len(batch) && batch[bi+1] == row+1 {
				hi = stripe // touches unit j-1 of the row after
			}
			sv := fs.serverOf(row, k+j)
			d.segs = append(d.segs, ioSeg{server: int32(sv), off: row*stripe + lo, n: hi - lo, mo: at(bi, j) + lo})
			if deltas != nil {
				if err := load(shards[k+j][lo:hi], sv, row*stripe+lo); err != nil {
					fs.release(d)
					return fmt.Errorf("pfs: parity row %d read: %w", row, err)
				}
			}
		}
		if deltas == nil {
			for c := 0; c < k; c++ {
				if err := load(shards[c], fs.serverOf(row, c), row*stripe); err != nil {
					fs.release(d)
					return fmt.Errorf("pfs: parity row %d read: %w", row, err)
				}
			}
			if err := fs.code.Encode(shards); err != nil {
				fs.release(d)
				return err
			}
		}
	}
	if deltas != nil {
		for i := range deltas.segs {
			s := &deltas.segs[i]
			row := s.off / stripe
			bi, ok := slices.BinarySearch(batch, row)
			if !ok {
				continue
			}
			for j := 0; j < m; j++ {
				shards[k+j] = sc.buf[at(bi, j):][:stripe]
			}
			if err := fs.code.Update(shards[k:], fs.shardOf(row, int(s.server)), int(s.off-row*stripe), deltas.pre[deltas.at[i]:][:s.n]); err != nil {
				fs.release(d)
				return err
			}
		}
	}
	if _, err := fs.dispatch(d); err != nil {
		return fmt.Errorf("pfs: parity update: %w", err)
	}
	return nil
}

// degradedReadFactor scales the straggler deadline of a degraded read:
// a read vector not fully served after this many times its nominal max
// per-server service time reconstructs its outstanding segments.
const degradedReadFactor = 3

// readDeadline returns the straggler deadline for a read vector:
// degradedReadFactor times the nominal (SlowFactor-free) max per-server
// service time of the vector, seek surcharge included as slack. Zero
// means no deadline (non-RealTime cost models).
func (fs *FS) readDeadline(sc *reconScratch, segs []ioSeg) time.Duration {
	c := fs.opts.Cost
	if !c.RealTime {
		return 0
	}
	per := grow(&sc.per, fs.opts.Servers)
	clear(per)
	for i := range segs {
		s := &segs[i]
		per[s.server] += c.RequestOverhead + c.SeekLatency + time.Duration(s.n)*c.ByteTime
	}
	return slices.Max(per) * degradedReadFactor
}

// dispatchDegraded is the read-side dispatch when parity is on.
// Segments that fail or time out are reconstructed from the surviving
// shards. On success the call is byte-identical to a healthy dispatch.
// Decoding wants contiguous
// memory, so a scattered vector is read into the dispatch's staging
// buffer and copied out at the end.
func (fs *FS) dispatchDegraded(d *dispatch) (int64, error) {
	segs, mem := d.segs, d.mem
	var total int64
	for i := range segs {
		total += segs[i].n
	}
	buf, inPlace := mem.(Contig)
	if !inPlace {
		if int64(cap(d.stage)) < total {
			d.stage = make([]byte, total)
		}
		buf = d.stage[:total]
		var at int64
		for i := range segs {
			segs[i].mi, segs[i].mo = 0, at
			at += segs[i].n
		}
	}
	if d.recon == nil {
		d.recon = &reconScratch{lost: map[[2]int64]bool{}, miss: map[int64]int{}}
	}
	sc := d.recon
	// Only an armed deadline can abandon a request, so only then do the
	// servers read into private memory, copied out segment by segment:
	// a straggler's late completion lands where nobody reads. That
	// memory is the one thing not drawn from the scratch.
	deadline := fs.readDeadline(sc, segs)
	target := buf
	if deadline > 0 {
		target = make([]byte, total)
	}
	if deadline > 0 || !inPlace {
		d.mem = Contig(target)
	}
	d.fold = d
	sc.folds, sc.foldSrc = sc.folds[:0], sc.foldSrc[:0]
	if cap(d.served) < len(segs) {
		d.served = make([]atomic.Bool, len(segs))
	}
	d.served = d.served[:len(segs)]
	begun := fs.writesBegun.Load()
	quiet := fs.writesEnded.Load() == begun // no data write in flight
	left := fs.submit(d, deadline)
	segs = d.segs[:len(segs)] // the read's own; its source fetches follow
	if left > 0 {
		left = fs.awaitLate(d, sc, left)
	}
	var err error
	for {
		// Whatever is not marked served — refused, failed, or still
		// outstanding at the deadline — is reconstructed.
		recon := sc.recon[:0]
		for i := range segs {
			if !d.served[i].Load() {
				recon = append(recon, i)
			} else if deadline > 0 {
				copy(segs[i].in(buf), segs[i].in(target))
			}
		}
		sc.recon = recon
		if len(recon) == 0 {
			err = nil
			break
		}
		// A rebuild decodes one state of each row from its row-mates and
		// coded units, so it holds writers off. The read's own served
		// segments, and the sources fetched beside them, were read before
		// the gate: they may seed it only if no data write overlapped the
		// read, or a write to a row-mate could pair new data with old
		// parity. The gate is let go by defer, so that a rebuild that
		// panics does not leave every later write and rebuild waiting.
		if fs.onRebuild != nil {
			fs.onRebuild()
		}
		var failIdx int
		failIdx, err = func() (int, error) {
			fs.parityGate.Lock()
			defer fs.parityGate.Unlock()
			return fs.reconstructSegs(sc, d, segs, buf, recon, quiet && fs.writesBegun.Load() == begun)
		}()
		if err == nil || left == 0 {
			if err != nil {
				// Keep the dispatch contract: bytes of the segments
				// preceding the earliest segment that could not be served.
				total = d.bytesBefore(failIdx)
			}
			break
		}
		// A straggler is slow, not lost. When its rows cannot be rebuilt
		// without it (another of their shards failed too), wait for it
		// and go again with what it returned. The rebuild's folds have
		// planned over the read's own, whose fetches are not taken again.
		sc.folds = sc.folds[:0]
		for ; left > 0; left-- {
			<-d.done
		}
	}
	if !inPlace {
		c := Cursor{Mem: mem}
		c.Move(buf, true)
	}
	if left == 0 {
		fs.release(d)
	}
	return total, err
}

// awaitLate answers a degraded read's deadline, which fired with left of
// its batches outstanding. Rebuilding a unit fetches the same range of
// its row's other shards, so rebuilding every late unit can fetch
// through the very straggler it avoids. The servers that still owe
// segments are left to the rebuild slowest first (sourceOrder) while no
// row they owe then misses more than m units, counting the units of the
// segments that failed; the read waits for the other outstanding
// batches. It returns the batches still outstanding.
func (fs *FS) awaitLate(d *dispatch, sc *reconScratch, left int) int {
	clear(sc.lost)
	clear(sc.miss)
	unit := func(i int32) [2]int64 { return [2]int64{d.segs[i].off / fs.opts.StripeSize, int64(d.segs[i].server)} }
	lose := func(u [2]int64) {
		if !sc.lost[u] {
			sc.lost[u] = true
			sc.miss[u[0]]++
		}
	}
	d.mu.Lock()
	for _, f := range d.fails {
		lose(unit(int32(f.idx)))
	}
	d.mu.Unlock()
	rebuilt, order := 0, fs.sourceOrder(sc) // rebuilt: outstanding batches left to the rebuild
late:
	for k := len(order) - 1; k >= 0; k-- {
		owed := sc.owed[:0] // the server's unserved units not lost already
		for _, i := range d.batches[order[k]].idx {
			if u := unit(i); !d.served[i].Load() && !sc.lost[u] {
				if sc.miss[u[0]] >= fs.code.M() {
					break late // waited for, and so are the faster late servers
				}
				owed = append(owed, u)
			}
		}
		for _, u := range owed {
			lose(u)
		}
		if sc.owed = owed; len(owed) > 0 {
			rebuilt++
		}
	}
	for ; left > rebuilt; left-- {
		<-d.done
	}
	return left
}

// byServer orders the items 0..n-1 by their server, stably, with one
// counting sort: server s's items are idx[at[s]:at[s+1]]. Both slices
// are sc's, valid until the next call.
func (sc *reconScratch) byServer(servers, n int, server func(i int) int) (idx []int32, at []int) {
	idx = grow(&sc.idx, n)
	at = grow(&sc.at, servers+1)
	clear(at)
	for i := 0; i < n; i++ {
		at[server(i)+1]++
	}
	for s := 1; s < len(at); s++ {
		at[s] += at[s-1]
	}
	for i := 0; i < n; i++ {
		s := server(i)
		idx[at[s]] = int32(i)
		at[s]++
	}
	// at[s] has walked to the end of server s's bucket, which is where
	// server s+1's starts.
	copy(at[1:], at)
	at[0] = 0
	return idx, at
}

// sourceOrder ranks servers for reconstruction sources: healthy-fast
// first (ascending slow factor), then fewest requests queued — the
// "fastest k of k+m" selection. Servers that tie stay in index order
// here; rowSources puts them in one row's shard order.
func (fs *FS) sourceOrder(sc *reconScratch) []int {
	order := grow(&sc.order, fs.opts.Servers)
	backlog := grow(&sc.backlog, len(order))
	for i := range order {
		order[i], backlog[i] = i, fs.servers[i].queued.Load()
	}
	slices.SortStableFunc(order, func(a, b int) int { return fs.rank(sc, a, b) })
	return order
}

// rank compares two servers as sources: slow factor, then the backlog
// sourceOrder sampled.
func (fs *FS) rank(sc *reconScratch, a, b int) int {
	return cmp.Or(cmp.Compare(fs.servers[a].slow, fs.servers[b].slow), cmp.Compare(sc.backlog[a], sc.backlog[b]))
}

// rowSources returns the ranking order, from sourceOrder, for the lost
// units of row r: each run of servers that tie in it is put in the row's
// shard order, so that among equals a rebuild takes the row's data
// shards first and its coded ones last, and which server a rebuild
// leaves out varies with the row. Shard order is server order rotated
// to start at the first server at or past r mod n. The ranking is sc's,
// valid until the next call.
func (fs *FS) rowSources(sc *reconScratch, order []int, r int64) []int {
	out := grow(&sc.rowOrder, len(order))
	first := fs.serverOf(r, 0)
	for lo := 0; lo < len(order); {
		hi := lo + 1
		for hi < len(order) && fs.rank(sc, order[lo], order[hi]) == 0 {
			hi++
		}
		tie := order[lo:hi]
		p, _ := slices.BinarySearch(tie, first)
		copy(out[lo+copy(out[lo:], tie[p:]):], tie[:p])
		lo = hi
	}
	return out
}

// reconScratch is a degraded read's working memory, carried by its
// dispatch and pooled with it; what a read sizes here stays for the
// next. A deadline that abandons the dispatch abandons its scratch too.
type reconScratch struct {
	per      []time.Duration   // readDeadline: nominal service time per server
	order    []int             // sourceOrder: the ranking
	backlog  []int64           //   and the requests queued per server
	rowOrder []int             // rowSources: the ranking for one row
	recon    []int             // the segments to reconstruct
	owed     [][2]int64        // awaitLate: one server's late (row, server) units
	lost     map[[2]int64]bool //   the units the rebuild lacks
	miss     map[int64]int     //   and how many each row lacks
	jobs     []reconJob
	tabs     [][]byte // the jobs' shard tables, k+m entries each
	held     []bool   // the read's segments that may seed the rebuild
	idx      []int32  // byServer: the items by server
	at       []int    //   and where each server's items start
	// foldSources' plan: the lost segments it plans for, those whose k
	// sources it found, ascending, and those sources, k per segment (a
	// segment i of the read, or -1-i for fetch i of the planning pass).
	todo, folds, foldSrc []int32
	barred               []bool    // servers that take no fetch
	lists                [][]int32 // foldSources: each server's sources by offset
	flat                 []int32   //   and the sorted copies they are made of
	hint                 []int     // containing's search hint per server's list
}

// grow returns *s resized to n, reallocated only when too small. The
// contents are whatever was there.
func grow[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	}
	*s = (*s)[:n]
	return *s
}

// reconJob tracks one segment being reconstructed: which shards it
// holds.
type reconJob struct {
	segIdx int
	shards [][]byte // k+m entries by shard; non-nil = held
	got    int
}

// sameSurvivors reports whether two jobs hold the same shards, and so
// decode through the same ec.Decoder.
func sameSurvivors(a, b [][]byte) bool {
	for i := range a {
		if (a[i] == nil) != (b[i] == nil) {
			return false
		}
	}
	return true
}

// reconstructSegs rebuilds the listed segments of d — segs, the read's
// own — from the surviving shards, straight into the segments' places
// in buf. With seed, the read's served segments may be sources
// (sc.held), and a segment whose sources the read's own dispatch
// planned takes them when every one is there (foldShards). A segment
// left short is folded again: foldSources plans its sources into a
// dispatch of their own, with every server that failed or refused a
// pass of the rebuild barred, and that repeats while a segment is short
// and the last pass barred a new server. The decoder is looked up once
// per run of jobs with the same survivor set — one per row and failure
// pattern, not one per segment. On failure it returns the smallest
// segment index it could not serve, and an error that wraps its cause.
func (fs *FS) reconstructSegs(sc *reconScratch, d *dispatch, segs []ioSeg, buf []byte, recon []int, seed bool) (int, error) {
	k, m := fs.code.K(), fs.code.M()
	stripe := fs.opts.StripeSize
	jobs := grow(&sc.jobs, len(recon))
	shardTabs := grow(&sc.tabs, len(recon)*(k+m))
	clear(shardTabs)
	// The tables point into the caller's buffer and the passes' slabs:
	// let go of them.
	defer clear(shardTabs)
	held := grow(&sc.held, len(segs))
	for i := range held {
		held[i] = seed
	}
	for ji, idx := range recon {
		jobs[ji] = reconJob{segIdx: idx, shards: shardTabs[ji*(k+m) : (ji+1)*(k+m)]}
		held[idx] = false
	}
	// A server that failed the read's own dispatch is asked again, since
	// a refusal may have been its last; one that fails a rebuild's pass
	// is barred from the next.
	clear(sc.barred)
	if seed {
		fs.foldShards(d, d, jobs, buf)
	}
	var passes []*dispatch // their slabs hold fetched shards until the decode
	defer func() {
		for _, p := range passes {
			fs.release(p)
		}
	}()
	for {
		todo := sc.todo[:0]
		for ji := range jobs {
			if jobs[ji].got < k {
				todo = append(todo, int32(jobs[ji].segIdx))
			}
		}
		if sc.todo = todo; len(todo) == 0 {
			break
		}
		p := fs.newDispatch(nil, false)
		p.fold, passes = d, append(passes, p)
		fs.submit(p, 0)
		for _, f := range p.fails {
			sc.barred[f.seg.server] = true
		}
		fs.foldShards(d, p, jobs, buf)
		if len(p.fails) == 0 { // none barred: a new plan would be this one
			break
		}
	}
	var dec *ec.Decoder
	var decFor [][]byte // the shard table dec was chosen for
	for ji := range jobs {
		j := &jobs[ji]
		s := &segs[j.segIdx]
		if j.got < k {
			// Its cause: its own failure if it has one, else the last of
			// its sources'.
			var cause segErr
			d.mu.Lock()
			for _, p := range append([]*dispatch{d}, passes...) {
				for _, f := range p.fails {
					if f.idx == j.segIdx && (cause.err == nil || cause.seg.server != s.server) {
						cause = f
					}
				}
			}
			d.mu.Unlock()
			err := cause.error()
			if err == nil {
				err = fmt.Errorf("fewer than %d shards reachable", k)
			}
			return j.segIdx, fmt.Errorf("pfs: degraded read: cannot reconstruct server %d row %d: %w",
				s.server, s.off/stripe, err)
		}
		if dec == nil || !sameSurvivors(j.shards, decFor) {
			var err error
			if dec, err = fs.code.Decoder(j.shards); err != nil {
				return j.segIdx, fmt.Errorf("pfs: degraded read: %w", err)
			}
			decFor = j.shards
		}
		if err := dec.Decode(s.in(buf), fs.shardOf(s.off/stripe, int(s.server)), j.shards); err != nil {
			return j.segIdx, fmt.Errorf("pfs: degraded read: %w", err)
		}
		fs.degraded.Add(1)
		fs.reconBytes.Add(s.n)
	}
	return len(segs), nil
}

// within returns the n bytes at server-local offset off of the segment,
// which holds them, in buf, the contiguous memory the segment list was
// built over.
func (s *ioSeg) within(buf []byte, off, n int64) []byte {
	at := s.mo + off - s.off
	return buf[at : at+n]
}

// ascending reports whether list, indices into segs, ascends by the
// segments' offsets, as the lists of a vector whose runs ascend do.
func ascending(segs []ioSeg, list []int32) bool {
	for k := 1; k < len(list); k++ {
		if segs[list[k]].off < segs[list[k-1]].off {
			return false
		}
	}
	return true
}

// sortByOffset sorts list, indices into segs, by the segments' offsets,
// stably, unless it ascends already.
func sortByOffset(segs []ioSeg, list []int32) {
	if !ascending(segs, list) {
		slices.SortStableFunc(list, func(a, b int32) int { return cmp.Compare(segs[a].off, segs[b].off) })
	}
}

// containing returns the segment of list — indices into segs of one
// server's segments, ascending by offset — that holds the n bytes at off
// whole, or -1, and the position to pass as from to the next query of
// the list. It searches for the segments that start at the last offset
// at or below off and tries each: in a list that does not overlap
// itself, a segment starting further down ends before them. The search
// gallops forward from position from, a hint, so a batch of ascending
// queries costs O(log gap) apiece; a query below the hint starts from 0.
func containing(segs []ioSeg, list []int32, off, n int64, from int) (int32, int) {
	if from > len(list) || from > 0 && segs[list[from-1]].off > off {
		from = 0 // the query went backwards
	}
	lo, hi := from, from
	for step := 1; hi < len(list) && segs[list[hi]].off <= off; step *= 2 {
		lo, hi = hi+1, hi+step
	}
	hi = min(hi, len(list))
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if segs[list[h]].off <= off {
			lo = h + 1
		} else {
			hi = h
		}
	}
	for h := lo - 1; h >= 0 && segs[list[h]].off == segs[list[lo-1]].off; h-- {
		if i := list[h]; segs[i].off+segs[i].n >= off+n {
			return i, lo
		}
	}
	return -1, lo
}

// foldSources plans, in accept's pass over d, the reconstruction sources
// of the lost segments of the read d.fold, so that d fetches them: on
// the read's own dispatch the segments the injector refused (d.fails,
// in submission order), on a rebuild's the ones still short (sc.todo).
// It takes the k sources a rebuild needs in sourceOrder. A source that
// a segment of the read holds whole (containing) is taken from it — on
// the read's own dispatch any accepted segment, on a rebuild's one that
// may seed it (sc.held). Any other becomes a read segment of d, its
// bytes in the slab and its failure counted against the lost segment
// (lentSeg), and is put to the injector now. A barred server takes no
// fetch (sc.barred: on the read's own dispatch one that refused a
// segment of it, on a rebuild's one that failed a pass), and one that
// refuses a fetch is barred. A segment left with fewer than k sources
// drops its fetches. The fetches go into their servers' lists in offset
// order, merged with d's own segments, and those lists' holes are
// priced again, so the one hole budget and the joining rules take them
// in with d's requests. It returns the dispatch's payload and candidate
// holes, fetches included.
func (fs *FS) foldSources(d *dispatch, inj *injBox, payload, want int64) (int64, int64) {
	read := d.fold
	sc, k, n0 := read.recon, fs.code.K(), len(d.segs)
	if read == d {
		clear(grow(&sc.barred, len(d.batches)))
		sc.todo = sc.todo[:0]
		for _, f := range d.fails {
			sc.todo = append(sc.todo, int32(f.idx))
			sc.barred[f.seg.server] = true
		}
	}
	if len(sc.todo) == 0 {
		return payload, want
	}
	// The lookups go through each server's sources sorted by offset: the
	// read's accepted list itself, or a sorted copy, since the list keeps
	// its order; on a rebuild's dispatch, a copy of those that may seed.
	lists, flat := grow(&sc.lists, len(d.batches)), grow(&sc.flat, len(read.segs))[:0]
	for s := range d.batches {
		if lists[s] = read.batches[s].idx; read == d && ascending(d.segs, lists[s]) {
			continue
		}
		at := len(flat)
		for _, i := range lists[s] {
			if read == d || int(i) < len(sc.held) && sc.held[i] {
				flat = append(flat, i)
			}
		}
		lists[s] = flat[at:]
		sortByOffset(read.segs, lists[s])
	}
	order := fs.sourceOrder(sc)
	hint := grow(&sc.hint, len(d.batches))
	clear(hint)
	folds, srcs := sc.folds[:0], sc.foldSrc[:0]
	// A lost segment fetches at most k sources of its bytes: the slab is
	// sized for them all at once, so a read that needs more than the
	// dispatch has held grows it in one step, not fetch by fetch.
	var most int64
	for _, j := range sc.todo {
		most += int64(k) * read.segs[j].n
	}
	d.slab = slices.Grow(d.slab, int(most))
	for _, j := range sc.todo {
		job := read.segs[j]
		segsAt, slabAt, srcAt := len(d.segs), len(d.slab), len(srcs)
		for _, c := range fs.rowSources(sc, order, job.off/fs.opts.StripeSize) {
			if len(srcs)-srcAt == k {
				break
			}
			if c == int(job.server) {
				continue
			}
			var i int32
			if i, hint[c] = containing(read.segs, lists[c], job.off, job.n, hint[c]); i >= 0 {
				srcs = append(srcs, i)
				continue
			}
			if sc.barred[c] {
				continue
			}
			if err := inj.fail(c, false, job.off, job.n); err != nil {
				sc.barred[c] = true
				d.fails = append(d.fails, segErr{idx: int(j), err: err, refused: true, seg: ioSeg{server: int32(c), off: job.off, n: job.n}})
				continue
			}
			at := int64(len(d.slab))
			d.slab = d.slab[:at+job.n]
			srcs = append(srcs, -1-int32(len(d.segs)))
			d.segs = append(d.segs, lentSeg(c, job.off, job.n, at, j))
		}
		if len(srcs)-srcAt < k {
			d.segs, d.slab, srcs = d.segs[:segsAt], d.slab[:slabAt], srcs[:srcAt]
			continue
		}
		folds = append(folds, j)
	}
	sc.folds, sc.foldSrc = folds, srcs
	if len(d.segs) == n0 {
		return payload, want
	}
	if cap(d.served) < len(d.segs) {
		d.served = make([]atomic.Bool, len(d.segs))
	}
	d.served = d.served[:len(d.segs)]
	priced := fs.opts.Cost.SeekLatency > 0 // as accept prices
	if priced {
		d.grant = slices.Grow(d.grant, len(d.segs)-n0)[:len(d.segs)]
		for _, s := range d.segs[n0:] {
			payload += s.n
		}
	}
	c := fs.opts.Cost
	idx, at := sc.byServer(len(d.batches), len(d.segs)-n0, func(i int) int { return int(d.segs[n0+i].server) })
	for s := range d.batches {
		fetch := idx[at[s]:at[s+1]]
		if len(fetch) == 0 {
			continue
		}
		for x := range fetch {
			fetch[x] += int32(n0)
		}
		sortByOffset(d.segs, fetch)
		b := &d.batches[s]
		own, out := b.idx, d.idxTmp[:0]
		var end int64 // the furthest end of the list so far
		for _, i := range own {
			if priced && d.grant[i] < 0 {
				want += d.grant[i] // priced again below
			}
		}
		for len(own) > 0 || len(fetch) > 0 {
			var i int32
			if len(fetch) == 0 || len(own) > 0 && d.segs[own[0]].off <= d.segs[fetch[0]].off {
				i, own = own[0], own[1:]
			} else {
				i, fetch = fetch[0], fetch[1:]
			}
			if priced {
				sg := &d.segs[i]
				d.grant[i] = 0
				if g := sg.off - end; len(out) > 0 && g > 0 && pays(c, g) {
					d.grant[i] = -g
					want += g
				}
				end = max(end, sg.off+sg.n)
			}
			out = append(out, i)
		}
		b.idx, d.idxTmp = out, b.idx
	}
	return payload, want
}

// foldShards fills the shard table of each job that the plan of pass
// dp covers (sc.folds) if every source planned for it is there: a
// segment of the read d that may seed the rebuild (sc.held), whose
// range is in buf, or a fetch that dp served, in dp's slab.
func (fs *FS) foldShards(d, dp *dispatch, jobs []reconJob, buf []byte) {
	sc, k, fi := d.recon, fs.code.K(), 0
next:
	for ji := range jobs {
		j := &jobs[ji]
		for fi < len(sc.folds) && int(sc.folds[fi]) < j.segIdx {
			fi++
		}
		if fi == len(sc.folds) || int(sc.folds[fi]) != j.segIdx {
			continue
		}
		srcs := sc.foldSrc[fi*k : (fi+1)*k]
		for _, i := range srcs {
			if i >= 0 && !sc.held[i] || i < 0 && !dp.served[-1-i].Load() {
				continue next
			}
		}
		lost := &d.segs[j.segIdx]
		row := lost.off / fs.opts.StripeSize
		for _, i := range srcs {
			if i >= 0 {
				s := &d.segs[i]
				j.shards[fs.shardOf(row, int(s.server))] = s.within(buf, lost.off, lost.n)
			} else {
				s := &dp.segs[-1-i]
				j.shards[fs.shardOf(row, int(s.server))] = dp.slab[s.mo : s.mo+s.n]
			}
		}
		j.got = k
	}
}
