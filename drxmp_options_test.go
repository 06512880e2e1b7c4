package drxmp_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"drxmp"
	"drxmp/internal/cluster"
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
		CollectiveParallelism: 5,
		CBNodes:               2,
		WriteBehindBytes:      -1,
		CacheBytes:            1 << 16,
		ReadAheadBytes:        2048,
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

		f, err = drxmp.OpenWith(c, path, drxmp.OpenOptions{
			FS:     pfs.Options{Servers: 2, StripeSize: 512},
			Tuning: want,
		})
		if err != nil {
			return err
		}
		defer f.Close()
		if got := f.Tuning(); got != want {
			return fmt.Errorf("Tuning() = %+v, want %+v", got, want)
		}
		// The resolved accessors must agree with the raw knobs too.
		if f.CBNodes() != want.CBNodes || f.WriteBehind() != want.WriteBehindBytes ||
			f.CacheBytes() != want.CacheBytes || f.ReadAhead() != want.ReadAheadBytes {
			return fmt.Errorf("resolved accessors diverge: cb=%d wb=%d cache=%d ra=%d",
				f.CBNodes(), f.WriteBehind(), f.CacheBytes(), f.ReadAhead())
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
		f, err = drxmp.OpenWith(c, path, drxmp.OpenOptions{FS: pfs.Options{Servers: 2, StripeSize: 512}})
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

// TestServeSetTuningValidation pins SetTuning's all-or-nothing
// behavior: a valid block applies every knob, an invalid one applies
// none and reports ErrBadOptions.
func TestServeSetTuningValidation(t *testing.T) {
	err := cluster.Run(1, func(c *cluster.Comm) error {
		f, err := drxmp.Create(c, "tuning", drxmp.Options{
			DType: drxmp.Float64, ChunkShape: []int{8, 8}, Bounds: []int{16, 16},
		})
		if err != nil {
			return err
		}
		defer f.Close()
		want := drxmp.Tuning{
			CollectiveParallelism: 4, CBNodes: 1,
			WriteBehindBytes: 4096, CacheBytes: 1 << 14, ReadAheadBytes: 512,
		}
		if err := f.SetTuning(want); err != nil {
			return err
		}
		if got := f.Tuning(); got != want {
			return fmt.Errorf("SetTuning applied %+v, want %+v", got, want)
		}
		bad := want
		bad.CacheBytes = -5
		err = f.SetTuning(bad)
		if !errors.Is(err, drxmp.ErrBadOptions) {
			return fmt.Errorf("SetTuning(bad) = %v, want ErrBadOptions", err)
		}
		if got := f.Tuning(); got != want {
			return fmt.Errorf("rejected SetTuning still mutated knobs: %+v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestServeBadOptions pins the typed validation error across Create,
// OpenWith, SetTuning and the Tuning block.
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
		f, err := drxmp.Create(c, "bad-settuning", base)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := f.SetTuning(drxmp.Tuning{ReadAheadBytes: 4096}); !errors.Is(err, drxmp.ErrBadOptions) {
			return fmt.Errorf("SetTuning(readahead-no-cache) = %v, want ErrBadOptions", err)
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
