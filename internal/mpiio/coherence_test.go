package mpiio

import (
	"bytes"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"drxmp/internal/cluster"
	"drxmp/internal/extent"
	"drxmp/internal/pfs"
)

// The write side of the cache's coherence: a direct write updates the
// clean copies of what it writes (BeginWrite, EndWrite), so every order
// in which overlapping writes and a sieve fetch can meet has to leave
// the cache equal to the store.

// interleave calls fn with every order of the actors' steps that keeps
// each actor's own steps in sequence; steps[a] counts actor a's steps,
// and order lists the actor of each step.
func interleave(steps []int, fn func(order []int)) {
	left := slices.Clone(steps)
	var order []int
	var rec func()
	rec = func() {
		done := true
		for a := range left {
			if left[a] == 0 {
				continue
			}
			done = false
			left[a]--
			order = append(order, a)
			rec()
			order = order[:len(order)-1]
			left[a]++
		}
		if done {
			fn(order)
		}
	}
	rec()
}

// demote moves the memory extents over runs into the spill tier, as
// budget eviction does.
func demote(w *fileCache, runs []pfs.Run) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, r := range runs {
		i, j := extent.Window(w.ext, r, 0)
		for _, e := range slices.Clone(w.ext[i:j]) {
			if w.spill.Put(e.off, e.data, false) {
				w.remove(e)
			}
		}
	}
}

// holdWrites parks the first write request the store is handed until
// release is closed, signalling held once it does.
type holdWrites struct {
	once          sync.Once
	held, release chan struct{}
}

func (h *holdWrites) Fail(_ int, write bool, _, _ int64) error {
	if write {
		h.once.Do(func() {
			close(h.held)
			<-h.release
		})
	}
	return nil
}

// TestFirstWriteResolvesCache: the first I/O of a caching handle is a
// write, and a read of the same bytes through the handle runs — and
// caches the store's old bytes — while the write is held before its
// store write. Once the write returns, a re-read must see the new
// bytes: the write's guard saw the read's fetch, and its EndWrite
// updated or dropped that cached copy.
func TestFirstWriteResolvesCache(t *testing.T) {
	fs, err := pfs.Create("first-write", pfs.Options{Servers: 2, StripeSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	old := bytes.Repeat([]byte{1}, 512)
	if _, err := fs.WriteAt(old, 0); err != nil {
		t.Fatal(err)
	}
	f, err := Open(cluster.Self(), fs, Tuning{CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	h := &holdWrites{held: make(chan struct{}), release: make(chan struct{})}
	fs.SetInjector(h)
	runs := []pfs.Run{{Off: 0, Len: 512}}
	fresh := bytes.Repeat([]byte{2}, 512)
	wrote := make(chan error, 1)
	go func() { wrote <- f.WriteV(runs, Contig(fresh)) }()
	<-h.held
	got := make([]byte, 512)
	if err := f.ReadV(runs, Contig(got)); err != nil {
		t.Fatal(err)
	}
	close(h.release)
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	if err := f.ReadV(runs, Contig(got)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fresh) {
		t.Fatalf("re-read after the write returned %v..., want the written %v...", got[:4], fresh[:4])
	}
}

// TestWriteInterleavings drives two overlapping direct writes, A and B,
// and one sieve fetch F step by step — each write's BeginWrite, store
// write and EndWrite, the fetch's plan, store read and insert — in
// every order that keeps each actor's own steps in sequence. The
// cache starts with the block [256, 512) clean, so the writes have a
// clean copy to update, and F fetches the cold block [0, 256) under
// both. After each order, a read of [0, 512) through the cache must
// equal the store. In the spill variant, A demotes the clean extents
// over its runs to the spill tier between its store write and its
// EndWrite, so they carry pre-write bytes.
func TestWriteInterleavings(t *testing.T) {
	for _, spilled := range []bool{false, true} {
		t.Run(fmt.Sprintf("spill=%v", spilled), func(t *testing.T) {
			var spillBytes int64
			if spilled {
				spillBytes = 1 << 16
			}
			fs, w, _ := tieredForTest(t, 1<<20, spillBytes)
			seed := make([]byte, 512)
			if _, err := fs.ReadAt(seed, 0); err != nil {
				t.Fatal(err)
			}
			whole := []pfs.Run{{Off: 0, Len: 512}}
			type writer struct {
				runs []pfs.Run
				p    []byte
				g    *fetchGuard
				err  error
			}
			var a, b writer
			a.runs, a.p = []pfs.Run{{Off: 100, Len: 60}, {Off: 170, Len: 130}}, fill(190, 0xA1)
			b.runs, b.p = []pfs.Run{{Off: 200, Len: 200}}, fill(200, 0xB2)
			var f sieveFetch
			var fbuf []byte
			var ferr error
			steps := func(x *writer, name string) []func() {
				s := []func(){
					func() { x.g = w.BeginWrite(x.runs) },
					func() { _, x.err = fs.WriteV(x.runs, x.p) },
					func() { w.EndWrite(x.g, x.runs, Contig(x.p), x.err == nil) },
				}
				if spilled && name == "A" {
					s = slices.Insert(s, 2, func() { demote(w, x.runs) })
				}
				return s
			}
			actors := [][]func(){steps(&a, "A"), steps(&b, "B"), {
				func() {
					fbuf = make([]byte, 512)
					f, ferr = w.planFetch(whole, Contig(fbuf))
					if ferr == nil && f.guard == nil {
						ferr = fmt.Errorf("the fetch found nothing to fetch")
					}
				},
				func() {
					if ferr == nil {
						_, ferr = fs.SieveReadV(f.plan, f.pieces)
					}
				},
				func() {
					if ferr == nil {
						w.settleFetch(&f, Contig(fbuf))
					}
				},
			}}
			names := []string{"A", "B", "F"}
			counts := []int{len(actors[0]), len(actors[1]), len(actors[2])}
			orders := 0
			interleave(counts, func(order []int) {
				orders++
				// A fresh start: an empty cache over the seed, [256, 512) warm.
				punch(w, []pfs.Run{{Off: 0, Len: 4096}})
				if _, err := fs.WriteAt(seed, 0); err != nil {
					t.Fatal(err)
				}
				if err := w.ReadThrough([]pfs.Run{{Off: 256, Len: 256}}, make(Contig, 256)); err != nil {
					t.Fatal(err)
				}
				var trace []string
				next := make([]int, len(actors))
				for _, actor := range order {
					actors[actor][next[actor]]()
					next[actor]++
					trace = append(trace, fmt.Sprintf("%s%d", names[actor], next[actor]))
				}
				if ferr != nil || a.err != nil || b.err != nil {
					t.Fatalf("order %s: fetch %v, writes %v, %v", strings.Join(trace, " "), ferr, a.err, b.err)
				}
				got, want := make([]byte, 512), make([]byte, 512)
				if err := w.ReadThrough(whole, Contig(got)); err != nil {
					t.Fatal(err)
				}
				if _, err := fs.ReadAt(want, 0); err != nil {
					t.Fatal(err)
				}
				if i := firstDiff(got, want); i >= 0 {
					t.Fatalf("order %s: the cache serves %#x at byte %d, the store holds %#x", strings.Join(trace, " "), got[i], i, want[i])
				}
				if len(w.guards) != 0 {
					t.Fatalf("order %s: %d guards left in flight", strings.Join(trace, " "), len(w.guards))
				}
				if err := checkInvariants(w); err != nil {
					t.Fatalf("order %s: %v", strings.Join(trace, " "), err)
				}
			})
			if want := map[bool]int{false: 1680, true: 4200}[spilled]; orders != want {
				t.Fatalf("%d orders, want %d", orders, want) // 9!/(3!3!3!), 10!/(4!3!3!)
			}
		})
	}
}

// firstDiff returns the first index where a and b differ, or -1.
func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// TestFailedWriteLeavesCacheEqualToStore: a write that one server
// refuses lands on the others, and WriteV reports the failure. The
// cache must then hold neither the pre-write bytes nor the whole write
// over its runs: a read through it equals the store.
func TestFailedWriteLeavesCacheEqualToStore(t *testing.T) {
	fs, _ := fcForTest(t, 1<<20, 256, 0)
	f, err := Open(cluster.Self(), fs, Tuning{CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	whole := []pfs.Run{{Off: 0, Len: 4096}}
	if err := f.ReadV(whole, make(Contig, 4096)); err != nil {
		t.Fatal(err)
	}
	runs := []pfs.Run{{Off: 64, Len: 512}, {Off: 1000, Len: 300}}
	fs.SetInjector(&pfs.FaultPoint{Server: 1, Op: pfs.FaultWrites, Permanent: true})
	if err := f.WriteV(runs, Contig(fill(812, 0xCD))); err == nil {
		t.Fatal("a write with one server refusing every write succeeded")
	}
	fs.SetInjector(nil)
	got, want := make([]byte, 812), make([]byte, 812)
	if err := f.ReadV(runs, Contig(got)); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadV(runs, want); err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(want, []byte{0xCD}); n == 0 || n == len(want) {
		t.Fatalf("%d of %d bytes landed: the write was not refused part-way", n, len(want))
	}
	if i := firstDiff(got, want); i >= 0 {
		t.Fatalf("the cache serves %#x at byte %d of the write, the store holds %#x", got[i], i, want[i])
	}
}

// TestOpenSharesOneCache: every caching handle on a store holds the
// cache the first one created, and a handle without a budget holds
// none. When the first Open cannot open its spill file, every later
// Open on that store returns the same error rather than trying again.
func TestOpenSharesOneCache(t *testing.T) {
	open := func(fs *pfs.FS, tn Tuning) (*File, error) { return Open(cluster.Self(), fs, tn) }
	fs, err := pfs.Create("open-shared", pfs.Options{Servers: 2, StripeSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	a, _ := open(fs, Tuning{CacheBytes: 1 << 20})
	b, _ := open(fs, Tuning{CacheBytes: 1 << 20})
	plain, _ := open(fs, Tuning{})
	if a.fc == nil || b.fc != a.fc || plain.fc != nil {
		t.Fatalf("caches %p, %p and %p: want one shared cache and none for the plain handle", a.fc, b.fc, plain.fc)
	}
	bad, err := pfs.Create("open-bad-spill", pfs.Options{Servers: 2, StripeSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	tn := Tuning{CacheBytes: 1 << 20, SpillBytes: 1 << 20, SpillPath: filepath.Join(t.TempDir(), "missing", "spill.dat")}
	_, err1 := open(bad, tn)
	_, err2 := open(bad, tn)
	if err1 == nil || err2 != err1 {
		t.Fatalf("Opens with an unopenable spill file returned %v, then %v: want one error, twice", err1, err2)
	}
}

func fill(n int, v byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = v
	}
	return p
}

// runShared runs fn on `ranks` ranks of one fresh store, each through a
// handle over a 1 MiB cache with WriteBehindBytes wb — a knob the
// benchmark harness still sets and the handle ignores — and returns the
// store. Rank r works in its own 512-byte region of the file (see mine).
func runShared(t *testing.T, ranks int, wb int64, fn func(c *cluster.Comm, f *File) error) *pfs.FS {
	t.Helper()
	fs, err := pfs.Create(t.Name(), pfs.Options{Servers: 2, StripeSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	err = cluster.Run(ranks, func(c *cluster.Comm) error {
		f, err := Open(c, fs, Tuning{WriteBehindBytes: wb, CacheBytes: 1 << 20})
		if err != nil {
			return err
		}
		return fn(c, f)
	})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// mine is the run of n bytes at off within rank c's 512-byte region.
func mine(c *cluster.Comm, off, n int64) []pfs.Run {
	return []pfs.Run{{Off: int64(c.Rank())*512 + off, Len: n}}
}

// TestWriteBehindWatermark: WriteBehindBytes is ignored. Below and past
// what was its watermark, each collective write is on the store when it
// returns, and the cache absorbs and flushes nothing.
func TestWriteBehindWatermark(t *testing.T) {
	fs := runShared(t, 1, 1024, func(c *cluster.Comm, f *File) error {
		for i, off := range []int64{0, 512} {
			data := fill(512, byte(7+i))
			if err := f.WriteAllV(mine(c, off, 512), Contig(data)); err != nil {
				return err
			}
			got := make([]byte, 512)
			if _, err := f.FS().ReadAt(got, off); err != nil {
				return err
			}
			if !bytes.Equal(got, data) {
				return fmt.Errorf("write %d: the store does not hold the collective's bytes", i)
			}
		}
		if st := f.CacheStats(); st.Absorbed != 0 || st.Flushes != 0 {
			return fmt.Errorf("cache absorbed %d B in %d flushes, want none", st.Absorbed, st.Flushes)
		}
		return nil
	})
	if st := fs.Stats(); st.FlushBytes() != 0 || st.Bytes()-st.BytesRead() != 1024 {
		t.Fatalf("FlushBytes %d, bytes written %d; want 0, 1024", st.FlushBytes(), st.Bytes()-st.BytesRead())
	}
}

// TestWriteBehindIndependentWritePunches: an independent write through
// the same handle over part of a collective write's warm bytes wins, in
// the cache and on the store.
func TestWriteBehindIndependentWritePunches(t *testing.T) {
	fs := runShared(t, 1, -1, func(c *cluster.Comm, f *File) error {
		if err := f.ReadV(mine(c, 0, 256), Contig(make([]byte, 256))); err != nil { // warm
			return err
		}
		if err := f.WriteAllV(mine(c, 0, 256), Contig(fill(256, 1))); err != nil {
			return err
		}
		if err := f.WriteV(mine(c, 64, 64), Contig(fill(64, 9))); err != nil { // newer
			return err
		}
		got := make([]byte, 256)
		if err := f.ReadV(mine(c, 0, 256), Contig(got)); err != nil {
			return err
		}
		for i := range got {
			want := byte(1)
			if i >= 64 && i < 128 {
				want = 9
			}
			if got[i] != want {
				return fmt.Errorf("byte %d = %d, want %d", i, got[i], want)
			}
		}
		return nil
	})
	got := make([]byte, 256)
	if _, err := fs.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if got[63] != 1 || got[64] != 9 || got[127] != 9 || got[128] != 1 {
		t.Fatalf("store bytes 63, 64, 127, 128 = %v, want [1 9 9 1]", []byte{got[63], got[64], got[127], got[128]})
	}
}

// TestWriteBehindCrossRankReadCoherence pins the shared cache: with
// every rank's region warm, a collective write whose bytes other ranks'
// aggregators write updates the one cache, so each rank's independent
// re-read of its region comes from memory with the new bytes.
func TestWriteBehindCrossRankReadCoherence(t *testing.T) {
	runShared(t, 4, -1, func(c *cluster.Comm, f *File) error {
		if err := f.ReadV(mine(c, 0, 512), Contig(make([]byte, 512))); err != nil { // warm
			return err
		}
		data := make([]byte, 512)
		for i := range data {
			data[i] = byte(c.Rank()*41 + i)
		}
		if err := f.WriteAllV(mine(c, 0, 512), Contig(data)); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		before := f.CacheStats()
		got := make([]byte, 512)
		if err := f.ReadV(mine(c, 0, 512), Contig(got)); err != nil {
			return err
		}
		if !bytes.Equal(got, data) {
			return fmt.Errorf("rank %d: independent read missed the collective's bytes", c.Rank())
		}
		if st := f.CacheStats(); st.HitBytes-before.HitBytes < 512 {
			return fmt.Errorf("rank %d: re-read of a warm region missed the cache", c.Rank())
		}
		return c.Barrier()
	})
}

// TestWriteBehindCrossRankLostUpdate: an independent write newer than a
// collective write wins, also where another rank's aggregator wrote the
// older bytes into the shared cache.
func TestWriteBehindCrossRankLostUpdate(t *testing.T) {
	runShared(t, 2, -1, func(c *cluster.Comm, f *File) error {
		if err := f.ReadV(mine(c, 0, 512), Contig(make([]byte, 512))); err != nil { // warm
			return err
		}
		if err := f.WriteAllV(mine(c, 0, 512), Contig(fill(512, byte(1+c.Rank())))); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 1 {
			if err := f.WriteV(mine(c, 100, 64), Contig(fill(64, 99))); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		got := make([]byte, 512)
		if err := f.ReadV(mine(c, 0, 512), Contig(got)); err != nil {
			return err
		}
		for i := range got {
			want := byte(1 + c.Rank())
			if c.Rank() == 1 && i >= 100 && i < 164 {
				want = 99
			}
			if got[i] != want {
				return fmt.Errorf("rank %d: byte %d = %d, want %d (lost update)", c.Rank(), i, got[i], want)
			}
		}
		return nil
	})
}
