package mpiio

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"drxmp/internal/pfs"
)

// checkInvariants asserts the cache's structural invariants. It takes
// w.mu, so it may run while other goroutines use the cache.
func checkInvariants(w *fileCache) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	var total, dirty int64
	var colors [2][]*cext
	for i, e := range w.ext {
		if len(e.data) == 0 {
			return fmt.Errorf("empty extent at %d", e.off)
		}
		if i > 0 {
			p := w.ext[i-1]
			if p.end() > e.off {
				return fmt.Errorf("extents [%d,%d) and [%d,%d) out of order or overlapping", p.off, p.end(), e.off, e.end())
			}
			if p.dirty && e.dirty && p.end() == e.off {
				return fmt.Errorf("adjacent dirty extents at %d were not merged", e.off)
			}
		}
		if !e.node.Linked() {
			return fmt.Errorf("resident extent at %d is in no recency heap", e.off)
		}
		total += int64(len(e.data))
		if e.dirty {
			dirty += int64(len(e.data))
		}
		colors[e.color()] = append(colors[e.color()], e)
	}
	if total != w.total || dirty != w.dirty {
		return fmt.Errorf("books say %d total / %d dirty, extents sum to %d / %d", w.total, w.dirty, total, dirty)
	}
	for c, want := range colors {
		got := slices.Clone(w.lru[c].Items())
		byOff := func(a, b *cext) int { return int(a.off - b.off) }
		slices.SortFunc(got, byOff)
		if !slices.Equal(got, want) {
			return fmt.Errorf("recency heap %d holds %d extents, the list has %d of that color (or they differ)", c, len(got), len(want))
		}
	}
	if err := checkMemory(w); err != nil {
		return err
	}
	if w.spill == nil {
		return nil
	}
	var spilled int64
	k := 0
	for _, r := range w.spill.Coverage(nil) {
		spilled += r.Len
		for k < len(w.ext) && w.ext[k].end() <= r.Off {
			k++
		}
		if k < len(w.ext) && w.ext[k].off < r.End() {
			return fmt.Errorf("spilled [%d,%d) is also in memory at [%d,%d)", r.Off, r.End(), w.ext[k].off, w.ext[k].end())
		}
	}
	if used := w.spill.Used(); used != spilled {
		return fmt.Errorf("spill.Used = %d, its entries sum to %d", used, spilled)
	}
	chunks, err := w.spill.CollectDirty(nil)
	if err != nil {
		return err
	}
	var spillDirty int64
	for _, c := range chunks {
		spillDirty += int64(len(c.Data))
	}
	if d := w.spill.Dirty(); d != spillDirty {
		return fmt.Errorf("spill.Dirty = %d, its dirty entries sum to %d", d, spillDirty)
	}
	return nil
}

// Every buffer the caches of this package's tests free is poisoned, so
// a reader that outlives its reference reads 0xA5, not stale bytes that
// happen to be right.
func init() { poisonFree = true }

// checkMemory asserts the ownership of the cache's memory: every resident
// extent's buffer counts exactly the resident extents over it plus its
// pins. Must be called with w.mu held.
func checkMemory(w *fileCache) error {
	over := make(map[*cbuf]int32)
	for _, e := range w.ext {
		if e.buf == nil || len(e.data) > len(e.buf.b) {
			return fmt.Errorf("extent [%d,%d) is not in a cache buffer", e.off, e.end())
		}
		over[e.buf]++
	}
	for b, n := range over {
		if b.refs != n+b.pins {
			return fmt.Errorf("buffer of %d B has %d references for %d resident extents and %d pins", len(b.b), b.refs, n, b.pins)
		}
	}
	return nil
}

// cacheModel drives a fileCache through the protocols its callers use
// and keeps the flat truth beside it: want is what a read must return.
type cacheModel struct {
	fs   *pfs.FS
	w    *fileCache
	cfg  Tuning
	want []byte
	rng  *rand.Rand
	lo   int64 // the slice of the file this driver owns
	hi   int64
}

// runs draws 1-4 sorted, disjoint, non-adjacent runs inside [lo, hi).
func (m *cacheModel) runs() []pfs.Run {
	var out []pfs.Run
	at := m.lo + m.rng.Int63n(64)
	for k := 1 + m.rng.Intn(4); k > 0 && at < m.hi-1; k-- {
		n := min(1+m.rng.Int63n(400), m.hi-at)
		out = append(out, pfs.Run{Off: at, Len: n})
		at += n + 1 + m.rng.Int63n(300)
	}
	return out
}

// packed returns a buffer the size of runs packed back-to-back.
func packed(runs []pfs.Run) []byte {
	var n int64
	for _, r := range runs {
		n += r.Len
	}
	return make([]byte, n)
}

func (m *cacheModel) payload(runs []pfs.Run) []byte {
	p := packed(runs)
	m.rng.Read(p)
	return p
}

// each calls fn with every run and its slice of the packed buffer.
func each(runs []pfs.Run, buf []byte, fn func(r pfs.Run, p []byte)) {
	var at int64
	for _, r := range runs {
		fn(r, buf[at:at+r.Len])
		at += r.Len
	}
}

// write is File.WriteV's protocol: BeginWrite, store write, EndWrite.
func (m *cacheModel) write(runs []pfs.Run) error {
	p := m.payload(runs)
	if err := writeThrough(m.fs, m.w, runs, p); err != nil {
		return err
	}
	each(runs, p, func(r pfs.Run, b []byte) { copy(m.want[r.Off:], b) })
	return nil
}

// absorb is the write-behind aggregator: defer every run, then settle
// the budget.
func (m *cacheModel) absorb(runs []pfs.Run) error {
	p := m.payload(runs)
	each(runs, p, func(r pfs.Run, b []byte) {
		m.w.Absorb(r.Off, b)
		copy(m.want[r.Off:], b)
	})
	clear(p) // Absorb copies: the caller may reuse its memory at once
	return m.enforce()
}

// enforce settles the budget and checks that it then holds.
func (m *cacheModel) enforce() error {
	if err := m.w.EnforceBudget(); err != nil {
		return err
	}
	if got := m.w.Cached(); m.sole() && got > m.cfg.CacheBytes {
		return fmt.Errorf("%d bytes cached after EnforceBudget, budget %d", got, m.cfg.CacheBytes)
	}
	return nil
}

// read is File.ReadV's protocol through the cache, checked against the
// model.
func (m *cacheModel) read(runs []pfs.Run) error {
	buf := packed(runs)
	if err := m.w.ReadThrough(runs, Contig(buf)); err != nil {
		return err
	}
	var bad error
	each(runs, buf, func(r pfs.Run, b []byte) {
		if bad == nil && !bytes.Equal(b, m.want[r.Off:r.End()]) {
			bad = fmt.Errorf("read of [%d,%d) returned stale or foreign bytes", r.Off, r.End())
		}
	})
	return bad
}

// durable checks that the store holds the model's bytes over runs.
func (m *cacheModel) durable(runs []pfs.Run) error {
	buf := packed(runs)
	if _, err := m.fs.ReadV(runs, buf); err != nil {
		return err
	}
	var bad error
	each(runs, buf, func(r pfs.Run, b []byte) {
		if bad == nil && !bytes.Equal(b, m.want[r.Off:r.End()]) {
			bad = fmt.Errorf("store differs from the model in [%d,%d) after a flush", r.Off, r.End())
		}
	})
	return bad
}

// step runs one random operation.
func (m *cacheModel) step() error {
	runs := m.runs()
	switch k := m.rng.Intn(17); {
	case k < 4:
		return m.write(runs)
	case k < 9:
		return m.absorb(runs)
	case k < 15:
		return m.read(runs)
	case k == 15:
		if err := m.w.FlushAll(); err != nil {
			return err
		}
		return m.durable([]pfs.Run{{Off: m.lo, Len: m.hi - m.lo}})
	}
	return m.enforce()
}

// sole reports whether this driver has the whole file, and therefore
// the cache, to itself.
func (m *cacheModel) sole() bool { return m.lo == 0 && m.hi == int64(len(m.want)) }

func newCacheModel(t *testing.T, size int64, cfg Tuning) *cacheModel {
	t.Helper()
	fs, err := pfs.Create("model", pfs.Options{Servers: 2, StripeSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	want := make([]byte, size)
	rand.New(rand.NewSource(size)).Read(want)
	if _, err := fs.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	cfg.SpillPath = filepath.Join(t.TempDir(), "spill.dat")
	return &cacheModel{fs: fs, w: cacheForTest(t, fs, cfg), cfg: cfg, want: want, hi: size}
}

// TestFileCacheModel: random operation sequences — every protocol the
// handles drive, under a tight budget with and without read-ahead and
// a spill tier — against the flat model, with
// the invariants asserted after every step. A failure names its seed
// and step; `-run 'TestFileCacheModel/seed=N'` replays it.
func TestFileCacheModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			m := newCacheModel(t, 8192, Tuning{CacheBytes: 2048, ReadAheadBytes: 256 * (seed % 2), SpillBytes: 4096 * (seed % 3)})
			m.rng = rand.New(rand.NewSource(seed))
			for step := 0; step < 250; step++ {
				if err := m.step(); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if err := checkInvariants(m.w); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
			whole := []pfs.Run{{Off: 0, Len: m.hi}}
			if err := m.read(whole); err != nil {
				t.Fatal(err)
			}
			if err := m.w.FlushAll(); err != nil {
				t.Fatal(err)
			}
			if err := m.durable(whole); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFileCacheModelConcurrent: four drivers on disjoint quarters of
// the file's first 16 KiB share the cache (sieve blocks, read-ahead and
// flush sweeps cross the quarter boundaries), each checked against its
// own slice of the model, while two writers share the last 2 KiB — their
// direct writes overlap each other, and their reads keep clean copies
// there for the writes to update — and a seventh goroutine asserts the
// invariants. After the writers stop, the cache must equal the store
// over their region. Run under -race.
func TestFileCacheModelConcurrent(t *testing.T) {
	const size, drivers, shared = 16384, 4, 2048
	base := newCacheModel(t, size+shared, Tuning{CacheBytes: 3072, ReadAheadBytes: 256, SpillBytes: 8192})
	var wg sync.WaitGroup
	chk := drivers + 2 // errs: the drivers', the two writers', the checker's
	errs := make([]error, chk+1)
	stop := make(chan struct{})
	for d := 0; d < drivers; d++ {
		m := *base
		m.rng = rand.New(rand.NewSource(int64(100 + d)))
		m.lo, m.hi = int64(d)*size/drivers, int64(d+1)*size/drivers
		wg.Add(1)
		go func() {
			defer wg.Done()
			for step := 0; step < 400 && errs[d] == nil; step++ {
				if err := m.step(); err != nil {
					errs[d] = fmt.Errorf("driver %d step %d: %w", d, step, err)
				}
			}
		}()
	}
	for d := drivers; d < chk; d++ {
		m := *base
		m.rng = rand.New(rand.NewSource(int64(100 + d)))
		m.lo, m.hi = size, size+shared
		wg.Add(1)
		go func() {
			defer wg.Done()
			for step := 0; step < 400 && errs[d] == nil; step++ {
				runs := m.runs()
				if m.rng.Intn(2) == 0 {
					errs[d] = writeThrough(m.fs, m.w, runs, m.payload(runs))
				} else {
					errs[d] = m.w.ReadThrough(runs, Contig(packed(runs)))
				}
			}
		}()
	}
	checked := make(chan struct{})
	go func() {
		defer close(checked)
		for errs[chk] == nil {
			select {
			case <-stop:
				return
			default:
				errs[chk] = checkInvariants(base.w)
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-checked
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := checkInvariants(base.w); err != nil {
		t.Fatal(err)
	}
	region := []pfs.Run{{Off: size, Len: shared}}
	got, want := packed(region), packed(region)
	if err := base.w.ReadThrough(region, Contig(got)); err != nil {
		t.Fatal(err)
	}
	if _, err := base.fs.ReadV(region, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("after the overlapping writers stopped, the cache differs from the store over their region")
	}
	copy(base.want[size:], want)
	whole := []pfs.Run{{Off: 0, Len: size + shared}}
	if err := base.read(whole); err != nil {
		t.Fatal(err)
	}
	if err := base.w.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := base.durable(whole); err != nil {
		t.Fatal(err)
	}
}
