// Package pfs simulates a striped parallel file system in the role PVFS2
// plays for the paper's DRX-MP testbed.
//
// A logical file is striped round-robin over S I/O servers with a fixed
// stripe unit: logical byte offset o lives on server (o/stripe) mod S.
// Two storage backends are provided: an in-memory backend (the default,
// used by tests and benchmarks) and a disk backend that stores one real
// file per server.
//
// Besides bytes, the package accounts *costs*. Each server keeps request
// counts, byte counts, and detected seeks (a request that does not start
// where the previous request on that server ended), and charges a
// deterministic service-time model (per-request overhead + seek latency
// + per-byte transfer time). The simulated elapsed time of a workload
// phase is the maximum per-server busy time accumulated in the phase —
// i.e. perfectly overlapped parallel service, which is the regime
// collective I/O strives for. Benchmarks report these simulated times
// alongside wall-clock times; only shapes are compared with the paper.
package pfs

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"drxmp/internal/ec"
	"drxmp/internal/extent"
)

// Backend selects where stripe data lives.
type Backend int

const (
	// Mem keeps each server's data in memory (default).
	Mem Backend = iota
	// Disk stores each server's data in a real file "<name>.s<i>".
	Disk
)

// CostModel is the deterministic service-time model charged per server.
// A zero model charges nothing (pure functional simulation).
type CostModel struct {
	// RequestOverhead is charged once per server request.
	RequestOverhead time.Duration
	// SeekLatency is charged when a request does not start at the
	// server's previous end offset. With it set, a server reads through
	// the hole between two segments of one list rather than seek over
	// it (queue.go's readsThrough) when its operation granted the hole:
	// any hole that pays, cheapest first, out of a budget of 1/4 of a
	// read's payload or 1/10 of a write's. A dense run of a read list is
	// one request, charged its span, holes included; one of a write list
	// is a read of its interior and a write of its span, and joins at
	// least two holes, unless the write's hole source lends the holes
	// (WriteVecFrom): then it is one write of its span. A run never reads
	// through a segment the injector refused.
	SeekLatency time.Duration
	// ByteTime is charged per byte transferred.
	ByteTime time.Duration
	// RealTime makes each server actually sleep its charged service
	// time in its service loop: requests to one server serialize
	// (a disk services one request at a time) while requests to
	// different servers overlap. This turns the simulated cost into
	// wall-clock time, so benchmarks can measure how well concurrent
	// clients overlap I/O latency across servers.
	RealTime bool
	// SlowFactor models per-server bandwidth asymmetry (stragglers):
	// server i's charged service time is multiplied by SlowFactor[i]
	// when that entry exists and is positive. Servers beyond the slice,
	// or with a non-positive entry, run at nominal speed (factor 1).
	SlowFactor []float64
}

// DefaultCost models a commodity 2007-era cluster disk behind a network
// file server: 5 ms seek, 100 MB/s streaming, 100 µs per-request
// software/network overhead.
func DefaultCost() CostModel {
	return CostModel{
		RequestOverhead: 100 * time.Microsecond,
		SeekLatency:     5 * time.Millisecond,
		ByteTime:        10 * time.Nanosecond,
	}
}

// Scheduler selects what one sweep of a server's service loop takes
// (queue.go). Either way the loop walks the sweep in order and serves
// each run of same-direction segments that touch, or lie a granted hole
// apart (see CostModel.SeekLatency), as one request.
type Scheduler int

const (
	// FIFO sweeps one operation's list at a time, in arrival order, each
	// in submission order.
	FIFO Scheduler = iota
	// Elevator freezes what is queued when a sweep starts and sorts it by
	// server-local offset into one ascending C-SCAN sweep, so segments of
	// different operations join too and a sweep charges one seek per
	// discontinuity. A granted hole is read through only behind a segment
	// of its own operation, so each operation stays within its own
	// budget. Requests arriving during a sweep wait for the next one,
	// which bounds how long any request can be bypassed (no starvation).
	// Concurrent writes to overlapping extents may land in either order,
	// as under FIFO, where the channel interleaving decides.
	Elevator
)

// Options configures a file system instance.
type Options struct {
	// Servers is the I/O server count (default 1).
	Servers int
	// StripeSize is the stripe unit in bytes (default 64 KiB).
	StripeSize int64
	// Backend selects Mem (default) or Disk.
	Backend Backend
	// Dir is the directory holding per-server files (Disk backend).
	Dir string
	// Cost is the service-time model (zero: no cost accounting).
	Cost CostModel
	// Scheduler selects the per-server queue discipline (default FIFO).
	Scheduler Scheduler
	// Parity reserves the last Parity servers of the stripe for
	// Reed-Solomon parity: data stripes round-robin over the first
	// k = Servers-Parity servers, and each parity row (the k data units
	// sharing one round) stores Parity coded units on the reserved
	// servers. Any k of the k+Parity units reconstruct the rest, so a
	// read that hits a dead server (failure injection) or a straggler
	// (past the degraded-read deadline, armed on RealTime cost models
	// only) is served by reconstruction from the fastest k instead of
	// failing or waiting. 0 (the default) disables parity entirely and
	// is byte- and accounting-identical to the pre-parity layout.
	Parity int
}

func (o Options) withDefaults() Options {
	if o.Servers <= 0 {
		o.Servers = 1
	}
	if o.StripeSize <= 0 {
		o.StripeSize = 64 << 10
	}
	return o
}

// ServerStats is the accounting of one I/O server.
type ServerStats struct {
	Reads        int64
	Writes       int64
	BytesRead    int64
	BytesWritten int64
	Seeks        int64
	// Busy is the accumulated simulated service time.
	Busy time.Duration
	// SieveReads counts the read services that carried data-sieving
	// fetch bytes (the mpiio file cache's SieveReadV traffic), and
	// SieveBytes the bytes themselves, splitting sieve-block fetches
	// from ordinary reads.
	SieveReads int64
	SieveBytes int64
	// LocalBytes / RemoteBytes attribute collective payload held by
	// this server to aggregation-domain locality: local bytes were
	// requested by the rank that also aggregates them (no exchange
	// hop), remote bytes crossed the rank exchange. Charged by every
	// collective (mpiio); independent I/O leaves them zero.
	LocalBytes  int64
	RemoteBytes int64
	// ReqSize is the per-request transfer-size histogram and SvcTime
	// the per-request service-latency histogram (microseconds), both in
	// power-of-two buckets (see Hist).
	ReqSize Hist
	SvcTime Hist
}

// Stats aggregates server accounting. Elapsed is the simulated parallel
// elapsed time: the maximum Busy over servers.
type Stats struct {
	PerServer []ServerStats
	// DegradedReads counts read segments whose bytes were served by
	// parity reconstruction (injected failure, straggler deadline, or
	// proactive avoidance) instead of by their home server, and
	// ReconstructBytes the bytes so served.
	DegradedReads    int64
	ReconstructBytes int64
}

// total sums one quantity over the servers.
func (s Stats) total(of func(*ServerStats) int64) (n int64) {
	for i := range s.PerServer {
		n += of(&s.PerServer[i])
	}
	return n
}

// Requests returns total read+write requests across servers.
func (s Stats) Requests() int64 {
	return s.total(func(ps *ServerStats) int64 { return ps.Reads + ps.Writes })
}

// Reads returns total read requests across servers.
func (s Stats) Reads() int64 { return s.total(func(ps *ServerStats) int64 { return ps.Reads }) }

// BytesRead returns total bytes read across servers.
func (s Stats) BytesRead() int64 { return s.total(func(ps *ServerStats) int64 { return ps.BytesRead }) }

// Bytes returns total bytes moved across servers.
func (s Stats) Bytes() int64 {
	return s.total(func(ps *ServerStats) int64 { return ps.BytesRead + ps.BytesWritten })
}

// DomainLocalBytes returns total placement-attributed domain-local
// bytes across servers (zero until a collective runs).
func (s Stats) DomainLocalBytes() int64 {
	return s.total(func(ps *ServerStats) int64 { return ps.LocalBytes })
}

// DomainRemoteBytes returns total placement-attributed domain-remote
// bytes across servers (zero until a collective routes a piece through
// another rank's aggregator).
func (s Stats) DomainRemoteBytes() int64 {
	return s.total(func(ps *ServerStats) int64 { return ps.RemoteBytes })
}

// Seeks returns total seeks across servers.
func (s Stats) Seeks() int64 { return s.total(func(ps *ServerStats) int64 { return ps.Seeks }) }

// Elapsed returns the simulated parallel elapsed time (max server Busy).
func (s Stats) Elapsed() time.Duration {
	var m time.Duration
	for _, ps := range s.PerServer {
		m = max(m, ps.Busy)
	}
	return m
}

// BusySum returns the total service time across servers (the serial
// equivalent of Elapsed).
func (s Stats) BusySum() time.Duration {
	return time.Duration(s.total(func(ps *ServerStats) int64 { return int64(ps.Busy) }))
}

// FlushBytes is always zero: no layer above the store buffers writes
// to flush later. It stays because the benchmark harness
// (bench/report.go) reports it, and does nothing else.
func (s Stats) FlushBytes() int64 { return 0 }

// SieveReads returns total sieve-fetch read services across servers.
func (s Stats) SieveReads() int64 {
	return s.total(func(ps *ServerStats) int64 { return ps.SieveReads })
}

// SieveBytes returns total sieve-fetch bytes across servers.
func (s Stats) SieveBytes() int64 {
	return s.total(func(ps *ServerStats) int64 { return ps.SieveBytes })
}

// ReqSizes returns the request-size histogram merged across servers.
func (s Stats) ReqSizes() Hist {
	var h Hist
	for _, ps := range s.PerServer {
		h.Merge(ps.ReqSize)
	}
	return h
}

// SvcTimes returns the service-latency histogram (microseconds) merged
// across servers.
func (s Stats) SvcTimes() Hist {
	var h Hist
	for _, ps := range s.PerServer {
		h.Merge(ps.SvcTime)
	}
	return h
}

// Sub returns s - t field-wise (for phase measurement).
func (s Stats) Sub(t Stats) Stats {
	out := Stats{
		PerServer:        make([]ServerStats, len(s.PerServer)),
		DegradedReads:    s.DegradedReads - t.DegradedReads,
		ReconstructBytes: s.ReconstructBytes - t.ReconstructBytes,
	}
	for i := range s.PerServer {
		a, b := s.PerServer[i], ServerStats{}
		if i < len(t.PerServer) {
			b = t.PerServer[i]
		}
		out.PerServer[i] = ServerStats{
			Reads:        a.Reads - b.Reads,
			Writes:       a.Writes - b.Writes,
			BytesRead:    a.BytesRead - b.BytesRead,
			BytesWritten: a.BytesWritten - b.BytesWritten,
			Seeks:        a.Seeks - b.Seeks,
			Busy:         a.Busy - b.Busy,
			SieveReads:   a.SieveReads - b.SieveReads,
			SieveBytes:   a.SieveBytes - b.SieveBytes,
			LocalBytes:   a.LocalBytes - b.LocalBytes,
			RemoteBytes:  a.RemoteBytes - b.RemoteBytes,
			ReqSize:      a.ReqSize.Sub(b.ReqSize),
			SvcTime:      a.SvcTime.Sub(b.SvcTime),
		}
	}
	return out
}

// memPage is the Mem backend's unit of growth. A server's bytes live in
// fixed pages, each allocated on its first store and read as zeros
// until then, so a store far past the end allocates one page and growth
// never re-copies stored bytes.
const memPage = 64 << 10

// server is one I/O server: a growable byte store plus accounting.
type server struct {
	mu      sync.Mutex
	mem     [][]byte // Mem backend: memPage-byte pages, nil until stored
	f       *os.File // Disk backend
	size    int64    // bytes stored on this server
	lastEnd int64    // end offset of the previous request (seek detection)
	stats   ServerStats
	cost    CostModel
	sched   Scheduler
	slow    float64 // per-server bandwidth-asymmetry factor (>= 1 normally)
	// queued counts the requests of the batches submitted to this server
	// and not yet settled in full: the elevator's backlog and
	// sourceOrder's ranking key.
	queued atomic.Int64
}

// newServer builds server i with its cost model, queue discipline, and
// resolved straggler factor.
func newServer(i int, opts Options) *server {
	sv := &server{cost: opts.Cost, sched: opts.Scheduler, slow: 1}
	if i < len(opts.Cost.SlowFactor) && opts.Cost.SlowFactor[i] > 0 {
		sv.slow = opts.Cost.SlowFactor[i]
	}
	return sv
}

// charge accounts one request and returns its service time; the service
// loop (queue.go) sleeps it, outside the lock, when the cost model is
// RealTime. Must be called with sv.mu held.
func (sv *server) charge(n int64, off int64, write bool) time.Duration {
	seek := off != sv.lastEnd
	if seek {
		sv.stats.Seeks++
	}
	if write {
		sv.stats.Writes++
		sv.stats.BytesWritten += n
	} else {
		sv.stats.Reads++
		sv.stats.BytesRead += n
	}
	d := sv.cost.RequestOverhead + time.Duration(n)*sv.cost.ByteTime
	if seek {
		d += sv.cost.SeekLatency
	}
	if sv.slow != 1 {
		d = time.Duration(float64(d) * sv.slow)
	}
	sv.stats.Busy += d
	sv.stats.ReqSize.Observe(n)
	sv.stats.SvcTime.Observe(int64(d / time.Microsecond))
	sv.lastEnd = off + n
	return d
}

// attribute counts n bytes of one read service as sieve-fetch traffic.
// Must be called with sv.mu held, after the service's charge.
func (sv *server) attribute(n int64) {
	sv.stats.SieveReads++
	sv.stats.SieveBytes += n
}

// storeLocked moves p into the backend at off and grows the per-server
// size, with no accounting. Must be called with sv.mu held.
func (sv *server) storeLocked(p []byte, off int64) error {
	if sv.f != nil {
		if _, err := sv.f.WriteAt(p, off); err != nil {
			return err
		}
	} else {
		if last := (off + int64(len(p)) - 1) / memPage; len(p) > 0 && last >= int64(len(sv.mem)) {
			sv.mem = append(sv.mem, make([][]byte, last+1-int64(len(sv.mem)))...)
		}
		for at, q := off, p; len(q) > 0; {
			page := &sv.mem[at/memPage]
			if *page == nil {
				*page = make([]byte, memPage)
			}
			n := copy((*page)[at%memPage:], q)
			at, q = at+int64(n), q[n:]
		}
	}
	if end := off + int64(len(p)); end > sv.size {
		sv.size = end
	}
	return nil
}

// loadLocked fills p from the backend at off (holes and regions past
// the per-server EOF read as zeros), with no accounting: stored bytes
// are copied in and only what lies past them, or in a page never
// stored, is zeroed. Must be called with sv.mu held.
func (sv *server) loadLocked(p []byte, off int64) error {
	if sv.f == nil {
		for at, q := off, p; len(q) > 0; {
			n := min(len(q), int(memPage-at%memPage))
			if i := at / memPage; i < int64(len(sv.mem)) && sv.mem[i] != nil {
				copy(q[:n], sv.mem[i][at%memPage:])
			} else {
				clear(q[:n])
			}
			at, q = at+int64(n), q[n:]
		}
		return nil
	}
	n := 0
	if off < sv.size {
		n = int(min(int64(len(p)), sv.size-off))
		if _, err := sv.f.ReadAt(p[:n], off); err != nil {
			return err
		}
	}
	clear(p[n:])
	return nil
}

// FS is one striped logical file. Methods are safe for concurrent use.
//
// Every request is serviced by the owning server's queue goroutine
// (queue.go): one logical ReadAt/WriteAt/ReadV/WriteV hands each server
// it touches the list of its segments up front and waits for the
// completions, so service time overlaps across servers even within a
// single call while each server still services one request at a time,
// in the order its Scheduler imposes (arrival order under FIFO,
// ascending C-SCAN sweeps under Elevator).
type FS struct {
	opts    Options
	servers []*server
	inj     atomic.Pointer[injBox] // failure injection (fault.go)

	// Erasure coding (parity.go). code is nil when Options.Parity is 0.
	// A data write holds parityGate shared from before its dispatch until
	// its deltas have landed, counted in writesBegun and writesEnded; a
	// whole-row re-encode and a degraded read's rebuild hold it
	// exclusively. parityMu serializes the coded units' read-modify-write.
	code                     *ec.Code
	parityGate               sync.RWMutex
	writesBegun, writesEnded atomic.Int64
	onRebuild                func() // tests: called as a degraded read's rebuild begins, before the gate
	parityMu                 sync.Mutex
	parity                   parityScratch // guarded by parityMu
	stale                    []int64       // rows whose coded units may not have landed, ascending; guarded by parityMu
	degraded                 atomic.Int64  // read segments served by reconstruction
	reconBytes               atomic.Int64  // bytes served by reconstruction

	queues  []chan *batch  // one request-list queue per server
	qwg     sync.WaitGroup // running queue workers
	qmu     sync.RWMutex   // guards qclosed vs. in-flight enqueues
	qclosed bool           // Close drained the queues (sync fallback)

	idleMu sync.Mutex  // guards idle
	idle   []*dispatch // dispatches between submissions (queue.go)

	flushMu  sync.Mutex     // guards flushers
	flushers []func() error // hooks Close runs before draining

	auxMu sync.Mutex     // guards aux
	aux   map[string]any // per-store slots for layered caches (see Aux)

	mu   sync.Mutex
	size int64 // logical file size (high-water mark of writes/truncate)
}

// Create opens a new striped file. For the Disk backend, per-server
// files "<name>.s<i>" are created (truncated) in opts.Dir.
func Create(name string, opts Options) (*FS, error) {
	opts = opts.withDefaults()
	fs := &FS{opts: opts, servers: make([]*server, opts.Servers)}
	if err := fs.initParity(); err != nil {
		return nil, err
	}
	for i := range fs.servers {
		sv := newServer(i, opts)
		if opts.Backend == Disk {
			path := filepath.Join(opts.Dir, fmt.Sprintf("%s.s%d", name, i))
			f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
			if err != nil {
				return nil, fmt.Errorf("pfs: create server file: %w", err)
			}
			sv.f = f
		}
		fs.servers[i] = sv
	}
	fs.startQueues()
	return fs, nil
}

// Open re-opens an existing Disk-backed striped file. opts must carry
// the stripe geometry (Servers, StripeSize, Parity) given to Create:
// the server files do not record it, so Open cannot tell a mismatch.
// The array libraries keep it in the array's .xmd, and
// drxmp.OpenWith (drx.Open too) passes the recorded geometry here.
func Open(name string, opts Options) (*FS, error) {
	opts = opts.withDefaults()
	if opts.Backend != Disk {
		return nil, errors.New("pfs: Open requires the Disk backend")
	}
	fs := &FS{opts: opts, servers: make([]*server, opts.Servers)}
	if err := fs.initParity(); err != nil {
		return nil, err
	}
	k := fs.dataServers()
	var logical int64
	for i := range fs.servers {
		path := filepath.Join(opts.Dir, fmt.Sprintf("%s.s%d", name, i))
		f, err := os.OpenFile(path, os.O_RDWR, 0o644)
		if err != nil {
			return nil, fmt.Errorf("pfs: open server file: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, err
		}
		sv := newServer(i, opts)
		sv.f, sv.size = f, st.Size()
		fs.servers[i] = sv
		// Reconstruct a lower bound of the logical size from the stripe
		// layout: data server i holding b bytes implies logical size >=
		// the end of its last full-or-partial stripe unit. Parity
		// servers hold coded units, not logical bytes, so they do not
		// contribute.
		if i < k && st.Size() > 0 {
			units := (st.Size() + opts.StripeSize - 1) / opts.StripeSize
			last := (units-1)*int64(k)*opts.StripeSize + int64(i)*opts.StripeSize
			end := last + (st.Size() - (units-1)*opts.StripeSize)
			if end > logical {
				logical = end
			}
		}
	}
	fs.size = logical
	fs.startQueues()
	return fs, nil
}

// Remove deletes the per-server files of a Disk-backed striped file.
func Remove(name string, opts Options) error {
	opts = opts.withDefaults()
	var first error
	for i := 0; i < opts.Servers; i++ {
		path := filepath.Join(opts.Dir, fmt.Sprintf("%s.s%d", name, i))
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) && first == nil {
			first = err
		}
	}
	return first
}

// Servers returns the server count (data + parity).
func (fs *FS) Servers() int { return fs.opts.Servers }

// Parity returns the number of parity servers.
func (fs *FS) Parity() int { return fs.opts.Parity }

// StripeSize returns the stripe unit in bytes.
func (fs *FS) StripeSize() int64 { return fs.opts.StripeSize }

// Size returns the logical file size.
func (fs *FS) Size() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.size
}

// Truncate sets the logical size (growing only; shrink is not needed by
// the array libraries, whose files are append-only by design).
func (fs *FS) Truncate(n int64) error {
	if n < 0 {
		return errors.New("pfs: negative size")
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if n > fs.size {
		fs.size = n
	}
	return nil
}

// locate maps a logical offset to (server, server-local offset). Data
// stripes round-robin over the first dataServers() servers; with
// Parity 0 that is every server and the layout is unchanged from the
// pre-parity code.
func (fs *FS) locate(off int64) (int, int64) {
	k := int64(fs.dataServers())
	unit := off / fs.opts.StripeSize
	within := off % fs.opts.StripeSize
	s := int(unit % k)
	round := unit / k
	return s, round*fs.opts.StripeSize + within
}

// forEachSegment splits [off, off+n) into per-server contiguous
// segments — one per stripe unit touched — in logical order.
func (fs *FS) forEachSegment(off, n int64, fn func(server int, srvOff, length int64)) {
	stripe := fs.opts.StripeSize
	for n > 0 {
		s, so := fs.locate(off)
		take := min(stripe-off%stripe, n) // to the end of this stripe unit
		fn(s, so, take)
		off, n = off+take, n-take
	}
}

// appendSegs appends to d the segments of [off, off+n), their memory
// the next bytes under cur.
func (fs *FS) appendSegs(d *dispatch, off, n int64, cur *Cursor) {
	fs.forEachSegment(off, n, func(s int, so, take int64) {
		mi, mo := cur.pos()
		d.segs = append(d.segs, ioSeg{server: int32(s), off: so, n: take, mi: mi, mo: mo})
		cur.Skip(take)
	})
}

// WriteAt writes p at logical offset off, growing the file as needed.
// It implements io.WriterAt. All per-server segments are queued up
// front, so their service times overlap across servers.
func (fs *FS) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, errors.New("pfs: negative offset")
	}
	if _, err := fs.transfer([]Run{{Off: off, Len: int64(len(p))}}, Contig(p), true, false, nil); err != nil {
		return 0, err
	}
	return len(p), nil
}

// ReadAt reads into p from logical offset off. Reads beyond the logical
// size or into never-written holes yield zero bytes (the array libraries
// pre-extend with Truncate and treat unwritten chunks as zero-filled).
// It implements io.ReaderAt and never returns io.EOF for in-range reads.
func (fs *FS) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, errors.New("pfs: negative offset")
	}
	if _, err := fs.transfer([]Run{{Off: off, Len: int64(len(p))}}, Contig(p), false, false, nil); err != nil {
		return 0, err
	}
	return len(p), nil
}

// Run is one contiguous byte extent of a vectored operation. It is an
// alias of the shared internal/extent type, so run lists flow between
// the layers (pfs vectored calls, the mpiio file cache's sieve plans)
// without conversion.
type Run = extent.Run

// Coalesce merges a run list into the minimal sorted, non-overlapping
// extent set covering exactly the same bytes (see extent.Coalesce, the
// shared implementation).
func Coalesce(runs []Run) []Run { return extent.Coalesce(runs) }

// ReadVec performs a vectored read of runs into mem: the runs' bytes,
// packed back-to-back in run order, fill mem's segments in order. It
// returns the total bytes read. The whole vector is submitted at once,
// so segments bound for different servers interleave service time
// instead of serializing run-by-run, and a per-server segment is one
// request however many memory segments it lands in.
func (fs *FS) ReadVec(runs []Run, mem Vec) (int64, error) {
	return fs.transfer(runs, mem, false, false, nil)
}

// ReadV is ReadVec into a contiguous buffer.
func (fs *FS) ReadV(runs []Run, buf []byte) (int64, error) {
	return fs.transfer(runs, Contig(buf), false, false, nil)
}

// SieveReadV is ReadVec with sieve-fetch attribution: the serviced
// bytes are additionally counted in ServerStats.SieveReads/SieveBytes,
// so benchmarks can split data-sieving block fetches from ordinary read
// dispatch. The mpiio file cache sends its sieve-aligned covering
// reads through this path, straight into its own buffers.
func (fs *FS) SieveReadV(runs []Run, mem Vec) (int64, error) {
	return fs.transfer(runs, mem, false, true, nil)
}

// WriteVec performs a vectored write of runs from mem (the runs' bytes
// are mem's segments, concatenated). It returns the total bytes written.
func (fs *FS) WriteVec(runs []Run, mem Vec) (int64, error) {
	return fs.transfer(runs, mem, true, false, nil)
}

// WriteVecFrom is WriteVec with a source that lends the bytes of the
// holes between its segments: a hole the source covers costs the write
// budget its own bytes, not a read-modify-write's, and once granted and
// lent it is stored as a segment of its own, so segment, hole and
// segment are one write request (HoleSource). A parity store takes no
// source: its holes keep the read-modify-write.
func (fs *FS) WriteVecFrom(runs []Run, mem Vec, src HoleSource) (int64, error) {
	return fs.transfer(runs, mem, true, false, src)
}

// WriteV is WriteVec from a contiguous buffer.
func (fs *FS) WriteV(runs []Run, buf []byte) (int64, error) {
	return fs.transfer(runs, Contig(buf), true, false, nil)
}

// transfer is every logical operation: it builds the segment list of
// the runs that fit mem — stopping at the first that does not, with a
// validation error — dispatches it, and on a write brings parity and
// the logical size up to date. sieve marks a read's bytes as sieve-fetch
// traffic (SieveReadV). src, a write's hole source, is dropped on a
// parity store.
func (fs *FS) transfer(runs []Run, mem Vec, write, sieve bool, src HoleSource) (int64, error) {
	d := fs.newDispatch(mem, write)
	d.sieve = sieve
	if fs.code == nil {
		d.src = src
	}
	var verr error
	var at int64
	accepted, size, cur := 0, mem.Len(), Cursor{Mem: mem}
	for _, r := range runs {
		if r.Off < 0 || at+r.Len > size {
			verr = fmt.Errorf("pfs: vectored run %+v at a negative offset or past the memory's %d bytes", r, size)
			break
		}
		fs.appendSegs(d, r.Off, r.Len, &cur)
		at += r.Len
		accepted++
	}
	if !write {
		done, err := fs.dispatch(d)
		if err != nil {
			return done, err
		}
		return at, verr
	}
	// With parity on, the parity of every row the accepted runs touch is
	// brought up to date — also when the dispatch failed, because
	// segments ahead of the failure landed and parity describes stored
	// bytes.
	var done int64
	var err, perr error
	if fs.code != nil {
		done, err, perr = fs.writeCoded(d, runs[:accepted])
	} else {
		done, err = fs.dispatch(d)
	}
	if err != nil {
		return done, err
	}
	if at > 0 {
		fs.mu.Lock()
		for _, r := range runs[:accepted] {
			if end := r.Off + r.Len; end > fs.size {
				fs.size = end
			}
		}
		fs.mu.Unlock()
	}
	if perr != nil {
		return at, perr
	}
	return at, verr
}

// Stats returns a snapshot of the accounting.
func (fs *FS) Stats() Stats {
	out := Stats{
		PerServer:        make([]ServerStats, len(fs.servers)),
		DegradedReads:    fs.degraded.Load(),
		ReconstructBytes: fs.reconBytes.Load(),
	}
	for i, sv := range fs.servers {
		sv.mu.Lock()
		out.PerServer[i] = sv.stats
		sv.mu.Unlock()
	}
	return out
}

// AttrLocality attributes n bytes at logical offset off to the
// domain-locality counters of the servers holding them: local reports
// whether the rank that requested the bytes is also the aggregator
// serving them (no exchange hop). Pure accounting — no service time,
// no seek state — called by the collective layer.
func (fs *FS) AttrLocality(off, n int64, local bool) {
	fs.forEachSegment(off, n, func(s int, _, length int64) {
		sv := fs.servers[s]
		sv.mu.Lock()
		if local {
			sv.stats.LocalBytes += length
		} else {
			sv.stats.RemoteBytes += length
		}
		sv.mu.Unlock()
	})
}

// ResetStats zeroes all accounting (including seek state).
func (fs *FS) ResetStats() {
	fs.degraded.Store(0)
	fs.reconBytes.Store(0)
	for _, sv := range fs.servers {
		sv.mu.Lock()
		sv.stats = ServerStats{}
		sv.lastEnd = 0
		sv.mu.Unlock()
	}
}

// Aux returns the store's slot for key, calling mk to fill it on first
// use (mk runs at most once per key; nil is never stored). Layers
// above the store — the mpiio extent cache — hang their
// per-file state here, so its lifetime is exactly the store's: no
// global registry, nothing pinned after the store is dropped.
func (fs *FS) Aux(key string, mk func() any) any {
	fs.auxMu.Lock()
	defer fs.auxMu.Unlock()
	if v, ok := fs.aux[key]; ok {
		return v
	}
	if fs.aux == nil {
		fs.aux = make(map[string]any)
	}
	v := mk()
	fs.aux[key] = v
	return v
}

// AddCloseFlusher registers fn to run at the start of Close, before
// the per-server queues drain, so any I/O it issues goes through the
// still-open queues (under the configured scheduler, interleaving with
// any queued reads) rather than racing the drain and falling into the
// post-Close synchronous path. The mpiio extent cache releases its
// spill file here. Flushers run once, in registration order; a second
// Close does not re-run them.
func (fs *FS) AddCloseFlusher(fn func() error) {
	fs.flushMu.Lock()
	fs.flushers = append(fs.flushers, fn)
	fs.flushMu.Unlock()
}

// Close runs the registered hooks (see AddCloseFlusher), then drains and stops the per-server queues, then releases backend
// resources (Disk files are synced and closed). I/O issued after Close
// is serviced synchronously in the caller (the pre-queue semantics).
func (fs *FS) Close() error {
	fs.flushMu.Lock()
	fns := fs.flushers
	fs.flushers = nil
	fs.flushMu.Unlock()
	var first error
	for _, fn := range fns {
		if err := fn(); err != nil && first == nil {
			first = err
		}
	}
	fs.stopQueues()
	for _, sv := range fs.servers {
		sv.mu.Lock()
		if sv.f != nil {
			if err := sv.f.Sync(); err != nil && first == nil {
				first = err
			}
			if err := sv.f.Close(); err != nil && first == nil {
				first = err
			}
			sv.f = nil
		}
		sv.mu.Unlock()
	}
	return first
}
