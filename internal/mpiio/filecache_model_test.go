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
	chunks, err := w.spill.CollectDirty()
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

// cacheModel drives a fileCache through the protocols its callers use
// and keeps the flat truth beside it: want is what a read must return.
type cacheModel struct {
	fs   *pfs.FS
	w    *fileCache
	cfg  cacheConfig
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

// write is File.WriteV's protocol: punch, store write, punch again.
func (m *cacheModel) write(runs []pfs.Run) error {
	p := m.payload(runs)
	m.w.PunchV(runs)
	if _, err := m.fs.WriteV(runs, p); err != nil {
		return err
	}
	if m.w.caching() {
		m.w.PunchV(runs)
	}
	each(runs, p, func(r pfs.Run, b []byte) { copy(m.want[r.Off:], b) })
	return nil
}

// absorb is the write-behind aggregator: defer every run, then settle
// the budget. collective adds the union punch in front.
func (m *cacheModel) absorb(runs []pfs.Run, collective bool) error {
	p := m.payload(runs)
	if collective {
		m.w.PunchOnce(1, runs)
	}
	each(runs, p, func(r pfs.Run, b []byte) {
		m.w.Absorb(r.Off, slices.Clone(b))
		copy(m.want[r.Off:], b)
	})
	return m.enforce()
}

// enforce settles the budget and checks that it then holds.
func (m *cacheModel) enforce() error {
	if err := m.w.EnforceBudget(); err != nil {
		return err
	}
	if got := m.w.Cached(); m.sole() && m.cfg.budget > 0 && got > m.cfg.budget {
		return fmt.Errorf("%d bytes cached after EnforceBudget, budget %d", got, m.cfg.budget)
	}
	return nil
}

// read is File.ReadV's protocol, checked against the model.
func (m *cacheModel) read(runs []pfs.Run) error {
	buf := packed(runs)
	if m.w.caching() {
		if err := m.w.ReadThrough(runs, Contig(buf)); err != nil {
			return err
		}
	} else {
		if err := m.w.FlushIntersecting(runs); err != nil {
			return err
		}
		if _, err := m.fs.ReadV(runs, buf); err != nil {
			return err
		}
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

// reconfigure moves the budget up, down or to 0 and the spill tier on
// or off, draining first where ApplyTuning would.
func (m *cacheModel) reconfigure() error {
	next := m.cfg
	next.budget = []int64{0, 512, 1024, 4096, 1 << 20}[m.rng.Intn(5)]
	if m.rng.Intn(2) == 0 {
		next.spillBytes = []int64{0, 2048, 16384}[m.rng.Intn(3)]
	}
	if (next.budget <= 0 && m.cfg.budget > 0) || (next.spillBytes <= 0 && m.cfg.spillBytes > 0) {
		if err := m.w.FlushAll(); err != nil {
			return err
		}
	}
	m.cfg = next
	m.w.Configure(next)
	return m.w.SpillErr()
}

// step runs one random operation.
func (m *cacheModel) step() error {
	runs := m.runs()
	switch k := m.rng.Intn(19); {
	case k < 4:
		return m.write(runs)
	case k < 7:
		return m.absorb(runs, false)
	case k < 9:
		return m.absorb(runs, true)
	case k < 15:
		return m.read(runs)
	case k == 15:
		if err := m.w.FlushAll(); err != nil {
			return err
		}
		return m.durable([]pfs.Run{{Off: m.lo, Len: m.hi - m.lo}})
	case k == 16:
		if err := m.w.FlushIntersecting(runs); err != nil {
			return err
		}
		return m.durable(runs)
	case k == 17:
		return m.enforce()
	}
	if m.sole() { // the policy is shared: drivers with company leave it alone
		return m.reconfigure()
	}
	return nil
}

// sole reports whether this driver has the whole file, and therefore
// the cache, to itself.
func (m *cacheModel) sole() bool { return m.lo == 0 && m.hi == int64(len(m.want)) }

func newCacheModel(t *testing.T, size int64, cfg cacheConfig) *cacheModel {
	t.Helper()
	fs, err := pfs.Create("model", pfs.Options{Servers: 2, StripeSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	want := make([]byte, size)
	rand.New(rand.NewSource(size)).Read(want)
	if _, err := fs.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	cfg.spillPath = filepath.Join(t.TempDir(), "spill.dat")
	w := newFileCache(fs)
	w.Configure(cfg)
	if err := w.SpillErr(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.closeHook() })
	return &cacheModel{fs: fs, w: w, cfg: cfg, want: want, hi: size}
}

// TestFileCacheModel: random operation sequences — every protocol the
// handles drive, under budgets that move between roomy, tight and off
// and a spill tier that comes and goes — against the flat model, with
// the invariants asserted after every step. A failure names its seed
// and step; `-run 'TestFileCacheModel/seed=N'` replays it.
func TestFileCacheModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			m := newCacheModel(t, 8192, cacheConfig{budget: 2048, sieve: 256, readAhead: 256 * (seed % 2), spillBytes: 4096 * (seed % 3)})
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

// TestFileCacheModelConcurrent: four drivers on disjoint quarters of one
// file share the cache (sieve blocks, read-ahead and flush sweeps cross
// the quarter boundaries), each checked against its own slice of the
// model while a fifth goroutine asserts the invariants. Run under
// -race.
func TestFileCacheModelConcurrent(t *testing.T) {
	const size, drivers = 16384, 4
	base := newCacheModel(t, size, cacheConfig{budget: 3072, sieve: 256, readAhead: 256, spillBytes: 8192})
	var wg sync.WaitGroup
	errs := make([]error, drivers+1)
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
	checked := make(chan struct{})
	go func() {
		defer close(checked)
		for errs[drivers] == nil {
			select {
			case <-stop:
				return
			default:
				errs[drivers] = checkInvariants(base.w)
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
	whole := []pfs.Run{{Off: 0, Len: size}}
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
