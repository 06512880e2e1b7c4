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
// place — and leave no temp file behind.
func TestPersistMetaFailureKeepsPreviousXMD(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "arr")
	err := cluster.Run(1, func(c *cluster.Comm) error {
		f, err := optionsCreateDisk(c, path, drxmp.Tuning{})
		if err != nil {
			return err
		}
		defer f.Close()

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
		blob, err := os.ReadFile(path + ".xmd")
		if err != nil {
			return err
		}
		m, err := meta.Decode(blob)
		if err != nil {
			t.Errorf("previous .xmd torn by the failed write: %v", err)
		} else if got := []int(m.ElemBounds); !reflect.DeepEqual(got, []int{32, 24}) {
			t.Errorf("previous .xmd bounds = %v, want the pre-extend [32 24]", got)
		}
		if left, _ := filepath.Glob(path + ".xmd.tmp*"); len(left) != 0 {
			t.Errorf("failed persist left temp files: %v", left)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
