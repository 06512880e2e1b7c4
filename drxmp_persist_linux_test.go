//go:build linux

package drxmp_test

import (
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"

	"drxmp"
	"drxmp/internal/cluster"
	"drxmp/internal/meta"
)

// TestPersistMetaFailureKeepsPreviousXMD: a metadata write that fails
// part-way (RLIMIT_FSIZE cuts it off after 16 bytes; the Go runtime
// ignores the accompanying SIGXFSZ) must leave the previous .xmd
// decodable — the replica is replaced by rename, never rewritten in
// place — and leave no temp file behind. The failed Extend leaves the
// handle at the old bounds too, so neither Close nor a reopen sees the
// extension the caller was told had failed.
func TestPersistMetaFailureKeepsPreviousXMD(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "arr")
	want := []int{32, 24}
	xmdBounds := func() []int {
		blob, err := os.ReadFile(path + ".xmd")
		if err != nil {
			t.Fatal(err)
		}
		m, err := meta.Decode(blob)
		if err != nil {
			t.Fatalf("previous .xmd torn by the failed write: %v", err)
		}
		return m.ElemBounds
	}
	err := cluster.Run(1, func(c *cluster.Comm) error {
		f, err := optionsCreateDisk(c, path, drxmp.Tuning{})
		if err != nil {
			return err
		}

		var old syscall.Rlimit
		if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
			return err
		}
		if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &syscall.Rlimit{Cur: 16, Max: old.Max}); err != nil {
			return err
		}
		eerr := f.Extend(0, 8)
		if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
			return err
		}
		if eerr == nil {
			t.Error("Extend succeeded although the metadata write was cut off")
		}
		if got := f.Bounds(); !reflect.DeepEqual(got, want) {
			t.Errorf("handle bounds after the failed Extend = %v, want %v", got, want)
		}
		if got := xmdBounds(); !reflect.DeepEqual(got, want) {
			t.Errorf("previous .xmd bounds = %v, want %v", got, want)
		}
		if left, _ := filepath.Glob(path + ".xmd.tmp*"); len(left) != 0 {
			t.Errorf("failed persist left temp files: %v", left)
		}
		return f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := xmdBounds(); !reflect.DeepEqual(got, want) {
		t.Errorf(".xmd bounds after Close = %v, want %v", got, want)
	}
	err = cluster.Run(1, func(c *cluster.Comm) error {
		f, err := drxmp.OpenWith(c, path, drxmp.OpenOptions{})
		if err != nil {
			return err
		}
		if got := f.Bounds(); !reflect.DeepEqual(got, want) {
			t.Errorf("reopened bounds = %v, want %v", got, want)
		}
		return f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}
