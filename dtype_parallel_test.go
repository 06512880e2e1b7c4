package drxmp

import (
	"fmt"
	"testing"

	"drxmp/internal/cluster"
)

// TestDTypeSizesDriveLayout pins the chunk byte sizes the metadata
// derives for each element type (2x3 chunks).
func TestDTypeSizesDriveLayout(t *testing.T) {
	want := map[DType]int64{
		Int32: 24, Int64: 48, Float32: 24, Float64: 48,
		Complex64: 48, Complex128: 96,
	}
	err := cluster.Run(1, func(c *cluster.Comm) error {
		for dt, bytes := range want {
			f, err := Create(c, fmt.Sprintf("sz-%d", dt), Options{
				DType: dt, ChunkShape: []int{2, 3}, Bounds: []int{4, 6},
			})
			if err != nil {
				return err
			}
			if got := f.Meta().ChunkBytes(); got != bytes {
				f.Close()
				return fmt.Errorf("%v: chunk bytes = %d, want %d", dt, got, bytes)
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
