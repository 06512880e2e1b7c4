package drxmp

import (
	"bytes"
	"testing"
	"time"

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

// TestReadSectionReadsThroughDenseChunks pins what an unaligned
// ReadSection costs once servers read through small holes: on 8
// servers with the benchmark's cost model, a box whose edge chunks are
// at least two thirds covered along a row is charged one request per
// chunk it covers, while a box whose edge chunks are at most a third
// covered is charged a request per row of them, as before. Either way
// the device moves at most 1.5× the payload, and the bytes are the
// array's.
func TestReadSectionReadsThroughDenseChunks(t *testing.T) {
	const dim, chunk = 256, 64
	fsOpts := pfs.Options{Servers: 8, StripeSize: chunk * chunk * 8, Cost: pfs.CostModel{
		RequestOverhead: 100 * time.Microsecond, SeekLatency: time.Millisecond, ByteTime: 4 * time.Nanosecond}}
	boxes := []struct {
		name  string
		box   Box
		dense bool // edge chunks at least 2/3 covered along a row
	}{
		// Columns 21..234: 43 of 64 in each edge chunk.
		{"dense", NewBox([]int{10, 21}, []int{118, 235}), true},
		// Columns 43..212: 21 of 64 in each edge chunk.
		{"sparse", NewBox([]int{10, 43}, []int{118, 213}), false},
	}
	err := cluster.Run(1, func(c *cluster.Comm) error {
		f, err := Create(c, "read-through", Options{
			DType: Float64, ChunkShape: []int{chunk, chunk}, Bounds: []int{dim, dim}, FS: fsOpts,
		})
		if err != nil {
			return err
		}
		defer f.Close()
		flat := make([]byte, dim*dim*8)
		for i := range flat {
			flat[i] = byte(i*7 + i/251)
		}
		if err := f.WriteSection(NewBox([]int{0, 0}, []int{dim, dim}), flat, RowMajor); err != nil {
			return err
		}
		server := func(off int64) int { return int(off / fsOpts.StripeSize % int64(fsOpts.Servers)) }
		for _, tc := range boxes {
			// Per server, the chunks the box covers and its coalesced runs.
			var p sectionPlan
			if _, err := f.sectionRuns(&p, tc.box, RowMajor); err != nil {
				return err
			}
			chunks, runs := make([]int64, fsOpts.Servers), make([]int64, fsOpts.Servers)
			for _, ch := range p.chunks {
				chunks[server(ch.q*f.m.ChunkBytes())]++
			}
			for _, r := range p.runs {
				runs[server(r.Off)]++
			}
			want := runs
			if tc.dense {
				want = chunks
			}

			f.fs.ResetStats()
			rows, cols := tc.box.Hi[0]-tc.box.Lo[0], tc.box.Hi[1]-tc.box.Lo[1]
			buf := make([]byte, rows*cols*8)
			if err := f.ReadSection(tc.box, buf, RowMajor); err != nil {
				return err
			}
			st := f.fs.Stats()
			for s, ps := range st.PerServer {
				if ps.Reads != want[s] {
					t.Errorf("%s: server %d charged %d read requests for %d chunks in %d runs; want %d",
						tc.name, s, ps.Reads, chunks[s], runs[s], want[s])
				}
			}
			if payload := int64(len(buf)); 2*st.BytesRead() > 3*payload {
				t.Errorf("%s: the device read %d bytes for a %d-byte payload, over 1.5×", tc.name, st.BytesRead(), payload)
			} else if tc.dense && st.BytesRead() == payload {
				t.Errorf("%s: the device read just the payload; the holes read through were not charged", tc.name)
			}
			for r := 0; r < rows; r++ {
				at := ((tc.box.Lo[0]+r)*dim + tc.box.Lo[1]) * 8
				if !bytes.Equal(buf[r*cols*8:(r+1)*cols*8], flat[at:at+cols*8]) {
					t.Fatalf("%s: row %d differs from the array", tc.name, r)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReadSectionSpendsHoleBudget pins the hole budget on the geometry
// of a collective window's left edge: 8 servers, a 64 KiB stripe and
// 64×64 float64 chunks, 16 to a chunk row, so chunk rows lie one stripe
// row apart and server 0 holds chunk columns 0 and 1 of every one. A
// box from chunk column 1 on leaves server 0 one 32 KiB piece per chunk
// row behind a 32 KiB hole, which the per-pair rule refuses. The holes
// are a small share of the read's payload, so the budget grants them:
// server 0 is charged one request and one seek for the whole column,
// and the device moves at most 9/8 of the payload.
func TestReadSectionSpendsHoleBudget(t *testing.T) {
	const rows, cols, chunk = 256, 16 * 64, 64
	fsOpts := pfs.Options{Servers: 8, StripeSize: 64 << 10, Cost: pfs.CostModel{
		RequestOverhead: 100 * time.Microsecond, SeekLatency: time.Millisecond, ByteTime: 4 * time.Nanosecond}}
	err := cluster.Run(1, func(c *cluster.Comm) error {
		f, err := Create(c, "hole-budget", Options{
			DType: Float64, ChunkShape: []int{chunk, chunk}, Bounds: []int{rows, cols}, FS: fsOpts,
		})
		if err != nil {
			return err
		}
		defer f.Close()
		flat := make([]byte, rows*cols*8)
		for i := range flat {
			flat[i] = byte(i*7 + i/251)
		}
		if err := f.WriteSection(NewBox([]int{0, 0}, []int{rows, cols}), flat, RowMajor); err != nil {
			return err
		}
		box := NewBox([]int{0, chunk}, []int{rows, cols})
		f.fs.ResetStats()
		w := cols - chunk
		buf := make([]byte, rows*w*8)
		if err := f.ReadSection(box, buf, RowMajor); err != nil {
			return err
		}
		st := f.fs.Stats()
		if s0 := st.PerServer[0]; s0.Reads != 1 || s0.Seeks != 1 {
			t.Errorf("server 0 charged %d read requests and %d seeks for %d chunk rows; want 1 and 1",
				s0.Reads, s0.Seeks, rows/chunk)
		}
		if payload := int64(len(buf)); 8*st.BytesRead() > 9*payload {
			t.Errorf("the device read %d bytes for a %d-byte payload, over 9/8", st.BytesRead(), payload)
		}
		for r := 0; r < rows; r++ {
			at := (r*cols + chunk) * 8
			if !bytes.Equal(buf[r*w*8:(r+1)*w*8], flat[at:at+w*8]) {
				t.Fatalf("row %d differs from the array", r)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
