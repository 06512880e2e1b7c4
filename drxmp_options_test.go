package drxmp_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"drxmp"
	"drxmp/internal/cluster"
	"drxmp/internal/meta"
	"drxmp/internal/pfs"
)

// Tests for the Open/Create options redesign: OpenOptions/Tuning knob
// plumbing, ErrBadOptions validation, and Create's partial-failure
// agreement.

func optionsCreateDisk(c *cluster.Comm, path string, tuning drxmp.Tuning) (*drxmp.File, error) {
	return drxmp.Create(c, path, drxmp.Options{
		DType: drxmp.Float64, ChunkShape: []int{8, 8}, Bounds: []int{32, 24},
		FS:     pfs.Options{Servers: 2, StripeSize: 512, Backend: pfs.Disk},
		Tuning: tuning,
	})
}

// TestServeOpenWithTuningRoundTrip pins that every knob OpenWith
// accepts lands on the opened handle exactly, and that a zero
// OpenOptions reads the block back as the zero Tuning.
func TestServeOpenWithTuningRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "arr")
	want := drxmp.Tuning{
		WriteBehindBytes: -1,
		CacheBytes:       1 << 16,
		ReadAheadBytes:   2048,
	}
	err := cluster.Run(2, func(c *cluster.Comm) error {
		f, err := optionsCreateDisk(c, path, drxmp.Tuning{})
		if err != nil {
			return err
		}
		full := drxmp.NewBox([]int{0, 0}, []int{32, 24})
		vals := make([]float64, full.Volume())
		for i := range vals {
			vals[i] = float64(i) * 1.25
		}
		if err := f.WriteSectionFloat64s(full, vals, drxmp.RowMajor); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}

		f, err = drxmp.OpenWith(c, path, drxmp.OpenOptions{Tuning: want})
		if err != nil {
			return err
		}
		defer f.Close()
		if got := f.Tuning(); got != want {
			return fmt.Errorf("Tuning() = %+v, want %+v", got, want)
		}
		// The accessor must agree with the raw knob too.
		if f.CacheBytes() != want.CacheBytes {
			return fmt.Errorf("CacheBytes() = %d, want %d", f.CacheBytes(), want.CacheBytes)
		}
		got, err := f.ReadSectionFloat64s(full, drxmp.RowMajor)
		if err != nil {
			return err
		}
		for i := range vals {
			if got[i] != vals[i] {
				return fmt.Errorf("data mismatch at %d after OpenWith: %v != %v", i, got[i], vals[i])
			}
		}

		// A zero-tuning re-open reads the same data and the zero block.
		if err := f.Close(); err != nil {
			return err
		}
		f, err = drxmp.OpenWith(c, path, drxmp.OpenOptions{})
		if err != nil {
			return err
		}
		defer f.Close()
		if got := f.Tuning(); got != (drxmp.Tuning{}) {
			return fmt.Errorf("zero OpenOptions applied tuning %+v", got)
		}
		got, err = f.ReadSectionFloat64s(full, drxmp.RowMajor)
		if err != nil {
			return err
		}
		for i := range vals {
			if got[i] != vals[i] {
				return fmt.Errorf("data mismatch at %d after zero-tuning OpenWith: %v != %v", i, got[i], vals[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOpenWithLayoutFromFile: the .xmd records the stripe layout, so a
// zero FS reopens a 5-server, 512 B, parity-1 array byte for byte, and
// a caller's geometry that differs from the recorded one is refused
// rather than mapping every offset to the wrong server.
func TestOpenWithLayoutFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "arr")
	box := drxmp.NewBox([]int{3, 5}, []int{29, 23})
	vals := make([]float64, box.Volume())
	for i := range vals {
		vals[i] = float64(i)*0.5 + 1
	}
	err := cluster.Run(2, func(c *cluster.Comm) error {
		f, err := drxmp.Create(c, path, drxmp.Options{
			DType: drxmp.Float64, ChunkShape: []int{8, 8}, Bounds: []int{32, 24},
			FS: pfs.Options{Backend: pfs.Disk, Servers: 5, StripeSize: 512, Parity: 1},
		})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if err := f.WriteSectionFloat64s(box, vals, drxmp.RowMajor); err != nil {
				return err
			}
		}
		if err := f.Close(); err != nil {
			return err
		}

		f, err = drxmp.OpenWith(c, path, drxmp.OpenOptions{})
		if err != nil {
			return err
		}
		defer f.Close()
		if fs := f.FS(); fs.Servers() != 5 || fs.StripeSize() != 512 || fs.Parity() != 1 {
			return fmt.Errorf("reopened store: %d servers, %d B stripe, parity %d", fs.Servers(), fs.StripeSize(), fs.Parity())
		}
		got, err := f.ReadSectionFloat64s(box, drxmp.RowMajor)
		if err != nil {
			return err
		}
		for i := range vals {
			if got[i] != vals[i] {
				return fmt.Errorf("element %d reads %v after a zero-FS reopen, want %v", i, got[i], vals[i])
			}
		}
		for name, fs := range map[string]pfs.Options{
			"servers": {Servers: 4},
			"stripe":  {StripeSize: 1024},
			"parity":  {Parity: 2},
		} {
			if _, err := drxmp.OpenWith(c, path, drxmp.OpenOptions{FS: fs}); !errors.Is(err, drxmp.ErrBadOptions) {
				return fmt.Errorf("OpenWith with a conflicting %s = %v, want ErrBadOptions", name, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// The same .xmd as format version 2, whose parity sat on the last
	// server, is refused as corrupt rather than read as rotated.
	blob, err := os.ReadFile(path + ".xmd")
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(blob[4:], 2)
	if err := os.WriteFile(path+".xmd", blob, 0o644); err != nil {
		t.Fatal(err)
	}
	err = cluster.Run(1, func(c *cluster.Comm) error {
		f, err := drxmp.OpenWith(c, path, drxmp.OpenOptions{})
		if err == nil {
			f.Close()
		}
		return err
	})
	if !errors.Is(err, meta.ErrCorrupt) {
		t.Fatalf("OpenWith of a version 2 .xmd with parity = %v, want meta.ErrCorrupt", err)
	}
}

// TestServeBadOptions pins the typed validation error across Create,
// OpenWith and the Tuning block.
func TestServeBadOptions(t *testing.T) {
	err := cluster.Run(1, func(c *cluster.Comm) error {
		base := drxmp.Options{DType: drxmp.Float64, ChunkShape: []int{8}, Bounds: []int{32}}
		for name, opts := range map[string]drxmp.Options{
			"order": func() drxmp.Options { o := base; o.Order = drxmp.Order(9); return o }(),
			"cyclic": func() drxmp.Options {
				o := base
				o.CyclicBlock = -1
				return o
			}(),
			"cache": func() drxmp.Options {
				o := base
				o.Tuning = drxmp.Tuning{CacheBytes: -1}
				return o
			}(),
			"readahead": func() drxmp.Options {
				o := base
				o.Tuning = drxmp.Tuning{ReadAheadBytes: -1}
				return o
			}(),
			"readahead-no-cache": func() drxmp.Options {
				o := base
				o.Tuning = drxmp.Tuning{ReadAheadBytes: 4096}
				return o
			}(),
		} {
			if _, err := drxmp.Create(c, "bad-"+name, opts); !errors.Is(err, drxmp.ErrBadOptions) {
				return fmt.Errorf("Create(%s) = %v, want ErrBadOptions", name, err)
			}
		}
		for name, opts := range map[string]drxmp.OpenOptions{
			"cyclic":             {CyclicBlock: -2},
			"cache":              {Tuning: drxmp.Tuning{CacheBytes: -1}},
			"readahead-no-cache": {Tuning: drxmp.Tuning{ReadAheadBytes: 4096}},
		} {
			if _, err := drxmp.OpenWith(c, "nope", opts); !errors.Is(err, drxmp.ErrBadOptions) {
				return fmt.Errorf("OpenWith(%s) = %v, want ErrBadOptions", name, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestServeCreatePersistFailureAllRanks pins the partial-failure fix:
// when rank 0 cannot persist the metadata, EVERY rank's Create returns
// an error (previously the other ranks returned healthy handles on a
// store rank 0 had abandoned), and the store is released so the name
// can be reused.
func TestServeCreatePersistFailureAllRanks(t *testing.T) {
	const ranks = 3
	dir := t.TempDir()
	path := filepath.Join(dir, "broken")
	// Make the metadata path unwritable: a directory where the .xmd
	// file must go.
	if err := os.MkdirAll(path+".xmd", 0o755); err != nil {
		t.Fatal(err)
	}
	errs := make([]error, ranks)
	err := cluster.Run(ranks, func(c *cluster.Comm) error {
		f, err := optionsCreateDisk(c, path, drxmp.Tuning{})
		errs[c.Rank()] = err
		if err == nil {
			f.Close()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, err := range errs {
		if err == nil {
			t.Fatalf("rank %d: Create returned a healthy handle despite rank 0's persist failure", r)
		}
	}
	// The failed create must not have leaked the store: creating at a
	// good path in the same directory still works on all ranks.
	good := filepath.Join(dir, "ok")
	err = cluster.Run(ranks, func(c *cluster.Comm) error {
		f, err := optionsCreateDisk(c, good, drxmp.Tuning{})
		if err != nil {
			return err
		}
		return f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestServeExtendPersistFailureAllRanks pins the same agreement for
// Extend: when rank 0 cannot persist the grown metadata (the array's
// directory is gone), BOTH ranks return an error — rank 0 used to
// return before the closing barrier and leave its peer blocked there
// forever — and Close still completes on both.
func TestServeExtendPersistFailureAllRanks(t *testing.T) {
	const ranks = 2
	dir := filepath.Join(t.TempDir(), "gone")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	errs := make([]error, ranks)
	done := make(chan error, 1)
	go func() {
		done <- cluster.Run(ranks, func(c *cluster.Comm) error {
			f, err := optionsCreateDisk(c, filepath.Join(dir, "arr"), drxmp.Tuning{})
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				if err := os.RemoveAll(dir); err != nil {
					return err
				}
			}
			errs[c.Rank()] = f.Extend(0, 8)
			f.Close() // rank 0's persist fails again; it must not hang either
			return nil
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("Extend with a failing persist stranded a rank")
	}
	for r, err := range errs {
		if err == nil {
			t.Errorf("rank %d: Extend returned nil despite rank 0's persist failure", r)
		}
	}
}

// WriteBehindBytes is ignored: the benchmark harness still sets it, so
// the tests below pin that every value is accepted and changes nothing.

// TestWriteBehindCloseFlushes: under every WriteBehindBytes value the
// same write-only epoch leaves identical stores after Close and flushes
// nothing. Each rank writes its column half
// one chunk-row per collective, in an order whose consecutive rows are
// rarely adjacent in the file.
func TestWriteBehindCloseFlushes(t *testing.T) {
	const ranks = 2
	const n, chunk = 64, 8
	knobs := []int64{0, n * n * 8 / 2, -1}
	stores := make([]*pfs.FS, len(knobs))
	err := cluster.Run(ranks, func(c *cluster.Comm) error {
		for i, wb := range knobs {
			f, err := drxmp.Create(c, fmt.Sprintf("wbclose-%d", i), drxmp.Options{
				DType: drxmp.Float64, ChunkShape: []int{chunk, chunk}, Bounds: []int{n, n},
				FS:     pfs.Options{Servers: 2, StripeSize: 512},
				Tuning: drxmp.Tuning{WriteBehindBytes: wb, CacheBytes: 1 << 20},
			})
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				stores[i] = f.FS()
			}
			q := n / ranks
			for _, row := range []int{0, 2, 1, 3, 4, 6, 5, 7} {
				box := drxmp.NewBox([]int{row * chunk, c.Rank() * q}, []int{(row + 1) * chunk, (c.Rank() + 1) * q})
				if err := f.WriteSectionAll(box, rankData(c.Rank(), box, int64(5+row)), drxmp.RowMajor); err != nil {
					return err
				}
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, n*n*8)
	if _, err := stores[0].ReadAt(want, 0); err != nil {
		t.Fatal(err)
	}
	for i, wb := range knobs {
		st := stores[i].Stats()
		if st.FlushBytes() != 0 {
			t.Errorf("WriteBehindBytes %d: %d flush bytes", wb, st.FlushBytes())
		}
		got := make([]byte, len(want))
		if _, err := stores[i].ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("WriteBehindBytes %d: the store differs from the one written with 0", wb)
		}
	}
}

// TestWriteBehindKnobPlumbing: the knob reads back from Tuning as
// given, needs no cache, and a collective write is on the store before
// any Sync.
func TestWriteBehindKnobPlumbing(t *testing.T) {
	err := cluster.Run(1, func(c *cluster.Comm) error {
		for _, cache := range []int64{0, 1 << 20} {
			f, err := drxmp.Create(c, "wbknob", drxmp.Options{
				DType: drxmp.Float64, ChunkShape: []int{4, 4}, Bounds: []int{8, 8},
				Tuning: drxmp.Tuning{WriteBehindBytes: -1, CacheBytes: cache},
			})
			if err != nil {
				return fmt.Errorf("cache %d: %w", cache, err)
			}
			if got := f.Tuning().WriteBehindBytes; got != -1 {
				return fmt.Errorf("WriteBehindBytes = %d, want -1", got)
			}
			box := drxmp.NewBox([]int{0, 0}, []int{8, 8})
			data := rankData(0, box, 9)
			if err := f.WriteSectionAll(box, data, drxmp.RowMajor); err != nil {
				return err
			}
			got := make([]byte, box.Volume()*8)
			if err := drxmp.StoreView(f).ReadSection(box, got, drxmp.RowMajor); err != nil {
				return err
			}
			if !bytes.Equal(got, data) {
				return fmt.Errorf("cache %d: the store lacks the collective's bytes before Sync", cache)
			}
			if err := f.Sync(); err != nil {
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDistArrayCheckpointWriteBehind: the Global-Array workflow with the
// knob set — Distribute (collective read), PutSection into remote zones,
// Checkpoint (FlushToFile + Sync) — leaves the store holding exactly
// the distributed state, and Get observes it.
func TestDistArrayCheckpointWriteBehind(t *testing.T) {
	const ranks = 4
	const n = 24
	err := cluster.Run(ranks, func(c *cluster.Comm) error {
		f, err := drxmp.Create(c, "wbga", drxmp.Options{
			DType: drxmp.Float64, ChunkShape: []int{6, 6}, Bounds: []int{n, n},
			FS:     pfs.Options{Servers: 2, StripeSize: 512},
			Tuning: drxmp.Tuning{WriteBehindBytes: -1, CacheBytes: 1 << 20},
		})
		if err != nil {
			return err
		}
		defer f.Close()
		box := slabBox([]int{n, n}, ranks, c.Rank())
		seed := make([]float64, box.Volume())
		for i := range seed {
			seed[i] = float64(c.Rank()*1000 + i)
		}
		if err := f.WriteSectionFloat64s(box, seed, drxmp.RowMajor); err != nil {
			return err
		}
		da, err := f.Distribute(drxmp.RowMajor)
		if err != nil {
			return err
		}
		defer da.Free()
		if got, err := da.Get([]int{box.Lo[0], 0}); err != nil || got != seed[0] {
			return fmt.Errorf("rank %d: Get = %v/%v, want %v", c.Rank(), got, err, seed[0])
		}
		// Rank 0 rewrites one remote row one-sidedly, then checkpoints.
		if err := da.Fence(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			row := drxmp.NewBox([]int{n - 1, 0}, []int{n, n})
			vals := make([]byte, row.Volume()*8)
			for i := range vals {
				vals[i] = byte(i + 3)
			}
			if err := da.PutSection(row, vals); err != nil {
				return err
			}
		}
		if err := da.Fence(); err != nil {
			return err
		}
		if err := da.Checkpoint(); err != nil {
			return err
		}
		// After Checkpoint every rank's independent read sees the row.
		row := drxmp.NewBox([]int{n - 1, 0}, []int{n, n})
		got := make([]byte, row.Volume()*8)
		if err := f.ReadSection(row, got, drxmp.RowMajor); err != nil {
			return err
		}
		for i := range got {
			if got[i] != byte(i+3) {
				return fmt.Errorf("rank %d: checkpointed byte %d = %d, want %d", c.Rank(), i, got[i], byte(i+3))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
