// parity.go implements erasure-coded striping across the simulated I/O
// servers: Reed-Solomon k+m parity maintenance on the write path and a
// straggler-avoiding degraded read path, in the mold of the
// hdpsr/Grasure designs (per-disk slow flags, fastest-k
// reconstruction).
//
// Layout. With Options.Parity = m > 0, data stripes round-robin over
// the first k = Servers-m servers (locate in pfs.go) and the last m
// servers are parity-only, RAID-4 style: parity row r — the k data
// units of striping round r — stores its j-th coded unit on server k+j
// at server-local offset r*StripeSize, the same local offset its data
// units occupy on their servers. A shard of row r is therefore
// addressed uniformly by its server index, which is what lets the
// degraded path turn a failed read segment straight into a
// reconstruction over the other servers.
//
// Writes. After a write dispatch returns, every parity row the write
// touches is re-encoded whole from the *stored* data units and the
// coded units are dispatched as ordinary (charged, injectable) writes
// to the parity servers. Whole units, not the written sub-range: the
// coded units of consecutive rows then stay contiguous on a parity
// server, which saves a seek worth far more than the bytes. The row
// reads are deliberately uncharged: they model the parity engine's
// server-local read-modify-write, not client traffic. parityMu
// serializes the read-encode-write cycle, so the last writer of a row —
// which by the lock ordering has observed every completed data write —
// stores the parity of the final data state.
//
// The torn-write rule: parity always describes stored bytes. A data
// dispatch that fails has still landed the segments ahead of the
// failure, so WriteAt/WriteV/FlushV re-encode the rows of everything
// they *attempted* before returning the dispatch error; otherwise the
// next degraded read of an untouched neighbour unit in such a row
// would decode garbage and report success.
//
// Row buffers. An update works out of the store's parityScratch, which
// parityMu guards along with the cycle: k stripe units the data of one
// row is loaded into, reused row after row, and m coded units per row
// of the batch, which the parity dispatch reads from and has finished
// with when it returns.
//
// Degraded reads. A segment that is refused by the failure injector,
// errors in service, exceeds the straggler deadline (DegradedReadFactor
// × the nominal max per-server service time, RealTime cost models
// only), or targets a server at or beyond AvoidSlowFactor is
// reconstructed: the same byte sub-range of the row's other shards is
// fetched from the fastest k of the remaining k+m-1 servers (ranked by
// slow factor, then requests queued), and the missing shard is decoded
// straight into the caller's buffer — byte-range decoding works
// because Reed-Solomon over GF(2^8) is bytewise. (A caller's vector
// that is not one contiguous buffer is assembled in the dispatch's
// staging buffer and copied out once.) The deadline cuts lists, not
// calls: when it fires, every segment a server has marked served is
// kept and the rest of each unfinished list is a straggler. Segments
// are read in place unless a deadline is armed; only then can a list be
// abandoned, and only then do the servers read into a private slab, so
// a straggler's late completions land in memory nobody reads — and the
// dispatch they belong to is never reused.
package pfs

import (
	"fmt"
	"slices"
	"sort"
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

// dataServers returns the number of servers holding data stripes.
func (fs *FS) dataServers() int { return fs.opts.Servers - fs.opts.Parity }

// parityRowBatch bounds how many rows one parity sweep encodes before
// dispatching, which bounds the coded-unit buffers held in memory for
// huge writes.
const parityRowBatch = 64

// parityScratch is updateParity's working memory, regrown on demand.
type parityScratch struct {
	buf    []byte   // k data units, then m coded units per row of a batch
	mem    Vec      // buf, as the parity writes' memory vector
	shards [][]byte // Encode's k+m view of the row being coded
}

// parityRows returns the parity rows intersecting runs, ascending and
// unique. Runs arrive sorted from every caller in the tree, so the
// sort is the exception.
func parityRows(runs []Run, rowBytes int64) []int64 {
	n := int64(0)
	for _, r := range runs {
		if r.Len > 0 {
			n += (r.Off+r.Len-1)/rowBytes - r.Off/rowBytes + 1
		}
	}
	rows := make([]int64, 0, n)
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

// updateParity re-encodes every parity row intersecting runs and
// writes the coded units to the parity servers. No-op when parity is
// off. Callers invoke it after their data dispatch returned, whether
// or not it succeeded (the torn-write rule above).
func (fs *FS) updateParity(runs []Run) error {
	if fs.code == nil || len(runs) == 0 {
		return nil
	}
	k, m := fs.code.K(), fs.code.M()
	stripe := fs.opts.StripeSize
	rows := parityRows(runs, int64(k)*stripe)
	if len(rows) == 0 {
		return nil
	}

	fs.parityMu.Lock()
	defer fs.parityMu.Unlock()
	sc := &fs.parity
	if need := (int64(k) + int64(min(len(rows), parityRowBatch)*m)) * stripe; int64(len(sc.buf)) < need {
		sc.buf = make([]byte, need)
		sc.mem = Contig(sc.buf)
	}
	if sc.shards == nil {
		sc.shards = make([][]byte, k+m)
	}
	shards := sc.shards
	for c := 0; c < k; c++ {
		shards[c] = sc.buf[int64(c)*stripe : int64(c+1)*stripe]
	}
	for len(rows) > 0 {
		batch := rows[:min(len(rows), parityRowBatch)]
		rows = rows[len(batch):]
		at := int64(k) * stripe // the next coded unit's place in sc.buf
		d := fs.newDispatch(sc.mem, true)
		for _, row := range batch {
			// The parity engine's local read-modify-write: load the
			// row's stored data units uncharged (holes read as zeros,
			// and zero data encodes to zero parity, so never-written
			// rows stay consistent).
			for c := 0; c < k; c++ {
				sv := fs.servers[c]
				sv.mu.Lock()
				err := sv.loadLocked(shards[c], row*stripe)
				sv.mu.Unlock()
				if err != nil {
					fs.release(d)
					return fmt.Errorf("pfs: parity row %d read: %w", row, err)
				}
			}
			for j := 0; j < m; j++ {
				shards[k+j] = sc.buf[at : at+stripe]
				d.segs = append(d.segs, ioSeg{server: int32(k + j), off: row * stripe, n: stripe, mo: at})
				at += stripe
			}
			if err := fs.code.Encode(shards); err != nil {
				fs.release(d)
				return err
			}
		}
		if _, err := fs.dispatch(d); err != nil {
			return fmt.Errorf("pfs: parity update: %w", err)
		}
	}
	return nil
}

// avoidServer reports whether reads should proactively skip the server
// (its slow factor is at or beyond Options.AvoidSlowFactor).
func (fs *FS) avoidServer(s int) bool {
	t := fs.opts.AvoidSlowFactor
	return t > 0 && fs.servers[s].slow >= t
}

// readDeadline returns the straggler deadline for a read vector: the
// configured factor times the nominal (SlowFactor-free) max per-server
// service time of the vector, seek surcharge included as slack. Zero
// means no deadline (non-RealTime cost models, or factor < 0).
func (fs *FS) readDeadline(segs []ioSeg) time.Duration {
	c := fs.opts.Cost
	if !c.RealTime {
		return 0
	}
	f := fs.opts.DegradedReadFactor
	if f < 0 {
		return 0
	}
	if f == 0 {
		f = 3
	}
	per := make([]time.Duration, fs.opts.Servers)
	for i := range segs {
		s := &segs[i]
		per[s.server] += c.RequestOverhead + c.SeekLatency + time.Duration(s.n)*c.ByteTime
	}
	return time.Duration(float64(slices.Max(per)) * f)
}

// dispatchDegraded is the read-side dispatch when parity is on.
// Segments that fail, time out, or are proactively avoided are
// reconstructed from the surviving shards. On success the call is
// byte-identical to a healthy dispatch. Decoding wants contiguous
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
	// Only an armed deadline can abandon a request, so only then do the
	// servers read into private memory, copied out segment by segment:
	// a straggler's late completion lands where nobody reads.
	deadline := fs.readDeadline(segs)
	target := buf
	if deadline > 0 {
		target = make([]byte, total)
	}
	if deadline > 0 || !inPlace {
		d.mem = Contig(target)
	}
	d.skip, d.avoid = true, true
	if cap(d.served) < len(segs) {
		d.served = make([]atomic.Bool, len(segs))
	}
	d.served = d.served[:len(segs)]
	finished := fs.submit(d, deadline)
	// Whatever is not marked served — refused, avoided, failed, or still
	// outstanding at the deadline — is reconstructed.
	var recon []int
	for i := range segs {
		if !d.served[i].Load() {
			recon = append(recon, i)
		} else if deadline > 0 {
			copy(segs[i].in(buf), segs[i].in(target))
		}
	}
	var err error
	if len(recon) > 0 {
		var failIdx int
		if failIdx, err = fs.reconstructSegs(segs, buf, recon); err != nil {
			// Keep the dispatch contract: bytes of the segments preceding
			// the earliest segment that could not be served.
			total = d.bytesBefore(failIdx)
		}
	}
	if !inPlace {
		c := Cursor{Mem: mem}
		c.Move(buf, true)
	}
	if finished {
		fs.release(d)
	}
	return total, err
}

// reconFetch is one source read of a reconstruction: the byte range of
// job's segment, out of the shard that server holds.
type reconFetch struct {
	job    *reconJob
	server int
	p      []byte // carved by serviceReconBatch
	err    error
}

// serviceReconBatch issues a round of reconstruction source fetches,
// coalescing per-server contiguous fetches into single requests first:
// a multi-row degraded read pulls consecutive shard rows from the same
// source server, and one large request pays one overhead + seek where
// the per-shard fetches would pay them per row. The fetches' buffers
// are carved from one slab in request order, so a merged request reads
// straight into its members. One failure does not stop the others; a
// merged failure fails every member, which then moves on to its next
// candidate.
func (fs *FS) serviceReconBatch(batch []reconFetch) {
	idx := make([]int, len(batch))
	total := 0
	for i := range idx {
		idx[i] = i
		total += batch[i].job.n
	}
	sort.SliceStable(idx, func(a, b int) bool {
		fa, fb := &batch[idx[a]], &batch[idx[b]]
		if fa.server != fb.server {
			return fa.server < fb.server
		}
		return fa.job.off < fb.job.off
	})
	slab := make([]byte, total)
	d := fs.newDispatch(Contig(slab), false)
	d.skip = true
	first := make([]int, 0, len(batch)+1) // d.segs[i] serves batch[idx[first[i]:first[i+1]]]
	var at int64
	for k, i := range idx {
		f := &batch[i]
		n := int64(f.job.n)
		f.p = slab[at : at+n]
		if last := len(d.segs) - 1; last >= 0 && int(d.segs[last].server) == f.server &&
			d.segs[last].off+d.segs[last].n == f.job.off {
			d.segs[last].n += n // f.p is the slab's next bytes
		} else {
			d.segs = append(d.segs, ioSeg{server: int32(f.server), off: f.job.off, n: n, mo: at})
			first = append(first, k)
		}
		at += n
	}
	first = append(first, len(idx))
	fs.submit(d, 0)
	for _, fl := range d.fails {
		for _, i := range idx[first[fl.idx]:first[fl.idx+1]] {
			batch[i].err = fl.err
		}
	}
	fs.release(d)
}

// sourceOrder ranks servers for reconstruction sources: healthy-fast
// first (ascending slow factor), then fewest requests queued, then
// index — the "fastest k of k+m" selection.
func (fs *FS) sourceOrder() []int {
	order := make([]int, fs.opts.Servers)
	backlog := make([]int64, len(order))
	for i := range order {
		order[i], backlog[i] = i, fs.servers[i].queued.Load()
	}
	sort.SliceStable(order, func(a, b int) bool {
		sa, sb := fs.servers[order[a]].slow, fs.servers[order[b]].slow
		if sa != sb {
			return sa < sb
		}
		return backlog[order[a]] < backlog[order[b]]
	})
	return order
}

// reconJob tracks one segment being reconstructed: which shards it
// holds, and how far down the source ranking it has asked.
type reconJob struct {
	segIdx int
	server int      // the segment's own server: the shard to rebuild
	off    int64    // server-local offset, the same on every server of the row
	n      int      // segment length
	shards [][]byte // k+m entries; non-nil = held
	got    int
	next   int // next entry of the source ranking to try
	lastE  error
}

// sameSurvivors reports whether two jobs hold shards of the same
// servers, and so decode through the same ec.Decoder.
func sameSurvivors(a, b [][]byte) bool {
	for i := range a {
		if (a[i] == nil) != (b[i] == nil) {
			return false
		}
	}
	return true
}

// reconstructSegs rebuilds the listed segments from the surviving
// shards, straight into the segments' places in buf. Source reads batch
// across jobs per round, so several reconstructions pay max- not
// sum-per-server service time. Jobs live in one slab and their shard
// tables in another; the decoder is looked up once per run of jobs
// with the same survivor set — one per row and failure pattern, not
// one per segment. On failure it returns the smallest segment index it
// could not serve.
func (fs *FS) reconstructSegs(segs []ioSeg, buf []byte, recon []int) (int, error) {
	k, m := fs.code.K(), fs.code.M()
	stripe := fs.opts.StripeSize
	order := fs.sourceOrder()
	jobs := make([]reconJob, len(recon))
	shardTabs := make([][]byte, len(recon)*(k+m))
	inRecon := make([]bool, len(segs))
	for ji, idx := range recon {
		s := &segs[idx]
		jobs[ji] = reconJob{
			segIdx: idx, server: int(s.server), off: s.off, n: int(s.n),
			shards: shardTabs[ji*(k+m) : (ji+1)*(k+m)],
		}
		inRecon[idx] = true
	}
	// Seed shards the vector already holds: a row-mate of the target
	// segment that was served healthily covers the same byte range of
	// its own stripe unit, so it is a reconstruction source for free —
	// a whole-row degraded read then only fetches the parity shards.
	for ji := range jobs {
		j := &jobs[ji]
		for i := range segs {
			if j.got >= k {
				break
			}
			s := &segs[i]
			if inRecon[i] || int(s.server) == j.server || s.off != j.off ||
				int(s.n) != j.n || j.shards[s.server] != nil {
				continue
			}
			j.shards[s.server] = s.in(buf)
			j.got++
		}
	}
	var batch []reconFetch
	for {
		batch = batch[:0]
		for ji := range jobs {
			j := &jobs[ji]
			for need := k - j.got; need > 0 && j.next < len(order); {
				c := order[j.next]
				j.next++
				if c == j.server || j.shards[c] != nil {
					continue // its own server, or already seeded from the vector
				}
				batch = append(batch, reconFetch{job: j, server: c})
				need--
			}
		}
		if len(batch) == 0 {
			break
		}
		fs.serviceReconBatch(batch)
		for i := range batch {
			f := &batch[i]
			if f.err != nil {
				f.job.lastE = f.err
				continue
			}
			f.job.shards[f.server] = f.p
			f.job.got++
		}
	}
	var dec *ec.Decoder
	var decFor [][]byte // the shard table dec was chosen for
	for ji := range jobs {
		j := &jobs[ji]
		s := &segs[j.segIdx]
		if j.got < k {
			err := j.lastE
			if err == nil {
				err = fmt.Errorf("only %d of %d shards reachable", j.got, k)
			}
			return j.segIdx, fmt.Errorf("pfs: degraded read: cannot reconstruct server %d row %d: %w",
				s.server, j.off/stripe, err)
		}
		if dec == nil || !sameSurvivors(j.shards, decFor) {
			var err error
			if dec, err = fs.code.Decoder(j.shards); err != nil {
				return j.segIdx, fmt.Errorf("pfs: degraded read: %w", err)
			}
			decFor = j.shards
		}
		if err := dec.Decode(s.in(buf), j.server, j.shards); err != nil {
			return j.segIdx, fmt.Errorf("pfs: degraded read: %w", err)
		}
		fs.degraded.Add(1)
		fs.reconBytes.Add(int64(j.n))
	}
	return len(segs), nil
}
