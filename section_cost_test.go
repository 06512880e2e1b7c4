package drxmp

import (
	"testing"

	"drxmp/internal/cluster"
	"drxmp/internal/pfs"
)

// TestWriteSectionChargesOneVectoredWrite pins what independent section
// I/O costs the device: on a 6+2 parity store, an unaligned 96x96
// WriteSection charges exactly the device bytes and requests of ONE
// fs.WriteV of the same coalesced runs. Splitting the section into
// several store writes would write the coded units of every parity row
// two of them share once per write, and charge them each time.
func TestWriteSectionChargesOneVectoredWrite(t *testing.T) {
	fsOpts := pfs.Options{Servers: 8, Parity: 2, StripeSize: 16 << 10}
	err := cluster.Run(1, func(c *cluster.Comm) error {
		f, err := Create(c, "section-cost", Options{
			DType: Float64, ChunkShape: []int{64, 64}, Bounds: []int{256, 256}, FS: fsOpts,
		})
		if err != nil {
			return err
		}
		defer f.Close()
		ref, err := pfs.Create("section-cost-ref", fsOpts)
		if err != nil {
			return err
		}
		defer ref.Close()

		// Same preallocated, fully written file on both sides.
		full := make([]byte, f.m.FileBytes())
		for _, fs := range []*pfs.FS{f.fs, ref} {
			if _, err := fs.WriteAt(full, 0); err != nil {
				return err
			}
			fs.ResetStats()
		}

		box := NewBox([]int{13, 7}, []int{109, 103})
		data := make([]byte, box.Volume()*8)
		for i := range data {
			data[i] = byte(i)
		}
		if err := f.WriteSection(box, data, RowMajor); err != nil {
			return err
		}

		var p sectionPlan
		stride, err := f.sectionRuns(&p, box, RowMajor)
		if err != nil {
			return err
		}
		var pruns []pfs.Run
		for _, r := range p.rows.runs {
			pruns = append(pruns, pfs.Run{Off: r.fileOff, Len: r.elems * 8})
		}
		pruns = pfs.Coalesce(pruns)
		scratch := make([]byte, len(data))
		f.scatterGather(p.rows.runs, stride, scratch, data, false)
		if _, err := ref.WriteV(pruns, scratch); err != nil {
			return err
		}

		got, want := f.fs.Stats(), ref.Stats()
		if got.Bytes() != want.Bytes() || got.Requests() != want.Requests() {
			t.Errorf("WriteSection charged %d device bytes in %d requests; one WriteV of its runs charges %d in %d",
				got.Bytes(), got.Requests(), want.Bytes(), want.Requests())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
