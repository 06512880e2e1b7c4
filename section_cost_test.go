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
// ReadSection costs once servers read through the holes its budget
// grants: on 8 servers with the benchmark's cost model, a box whose edge
// chunks are two thirds covered along a row leaves holes half their
// rows, and a quarter of the payload buys all of them, so the read is
// charged one request per chunk it covers. A box whose edge chunks are
// a third covered leaves holes twice their rows: the budget buys two
// edge chunks' holes, cheapest first, ties in submission order, so
// server 0 reads its edge chunk as one request while the other edge
// chunks still cost a request per row. Either way the device moves at
// most 5/4 of the payload, and the bytes are the array's.
func TestReadSectionReadsThroughDenseChunks(t *testing.T) {
	const dim, chunk = 256, 64
	fsOpts := pfs.Options{Servers: 8, StripeSize: chunk * chunk * 8, Cost: pfs.CostModel{
		RequestOverhead: 100 * time.Microsecond, SeekLatency: time.Millisecond, ByteTime: 4 * time.Nanosecond}}
	boxes := []struct {
		name  string
		box   Box
		dense bool // edge chunks 2/3 covered along a row
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

			f.fs.ResetStats()
			rows, cols := tc.box.Hi[0]-tc.box.Lo[0], tc.box.Hi[1]-tc.box.Lo[1]
			buf := make([]byte, rows*cols*8)
			if err := f.ReadSection(tc.box, buf, RowMajor); err != nil {
				return err
			}
			st := f.fs.Stats()
			var reqs, allRuns int64
			for s, ps := range st.PerServer {
				reqs, allRuns = reqs+ps.Reads, allRuns+runs[s]
				if tc.dense && ps.Reads != chunks[s] || ps.Reads > runs[s] {
					t.Errorf("%s: server %d charged %d read requests for %d chunks in %d runs; want one per chunk when dense, at most one per run",
						tc.name, s, ps.Reads, chunks[s], runs[s])
				}
			}
			if !tc.dense && (st.PerServer[0].Reads != 1 || reqs >= allRuns) {
				t.Errorf("%s: charged %d read requests for %d runs, %d on server 0; want fewer, and 1 on server 0",
					tc.name, reqs, allRuns, st.PerServer[0].Reads)
			}
			payload := int64(len(buf))
			if 4*st.BytesRead() > 5*payload {
				t.Errorf("%s: the device read %d bytes for a %d-byte payload, over its bound", tc.name, st.BytesRead(), payload)
			} else if st.BytesRead() == payload {
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
// row behind a 32 KiB hole as large as the piece. The holes are a small
// share of the read's payload, well within its budget of a quarter, so
// they are all granted: server 0 is charged one request and one seek for
// the whole column, and the device moves at most 9/8 of the payload.
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

// TestWriteSectionSpendsHoleBudget pins what an unaligned WriteSection
// costs once servers write through the holes its budget grants: on 8
// servers with the benchmark's cost model, one 64×64 float64 chunk to a
// server, a box whose edge chunks are two thirds covered along a row
// leaves 344-byte rows behind 168-byte holes. A write hole costs its
// bytes twice plus the row behind it, 680 bytes of a budget of a tenth
// of the payload, so one edge chunk's first rows are joined into one
// read of the holes between them and one write of their span. The
// write is charged fewer requests than it has segments, the device
// moves at most 11/10 of the payload, read legs included, and every
// byte reads back as written with the holes' bytes as they were.
func TestWriteSectionSpendsHoleBudget(t *testing.T) {
	st, segs, payload := holeBudgetWrite(t, Tuning{})
	if st.Requests() >= segs || st.Reads() == 0 {
		t.Errorf("charged %d requests, %d of them read legs, for %d segments; want fewer requests, and a read leg",
			st.Requests(), st.Reads(), segs)
	}
	if 10*st.Bytes() > 11*payload {
		t.Errorf("the device moved %d bytes for a %d-byte payload, over 11/10", st.Bytes(), payload)
	}
}

// TestCachedWriteSectionLendsHoles is TestWriteSectionSpendsHoleBudget's
// write on an array its cache holds whole. The cache lends the write
// the holes' clean bytes, so a hole costs the budget its own 168 bytes
// instead of 680, and the server stores row, hole and row as one
// request with no read leg: the write is charged fewer requests than
// the uncached one, no read, at most 11/10 of the payload in device
// bytes, and every byte reads back as written, through the cache and
// straight from the store.
func TestCachedWriteSectionLendsHoles(t *testing.T) {
	plain, _, _ := holeBudgetWrite(t, Tuning{})
	st, _, payload := holeBudgetWrite(t, Tuning{CacheBytes: 1 << 20})
	if st.Requests() >= plain.Requests() || st.Reads() != 0 {
		t.Errorf("charged %d requests, %d of them reads; want fewer than the uncached write's %d, and no read",
			st.Requests(), st.Reads(), plain.Requests())
	}
	if 10*st.Bytes() > 11*payload {
		t.Errorf("the device moved %d bytes for a %d-byte payload, over 11/10", st.Bytes(), payload)
	}
}

// holeBudgetWrite writes the unaligned box of the hole-budget tests over
// a 256×256 float64 array in 64×64 chunks, on 8 servers of one chunk
// per stripe unit under the benchmark's cost model, with tune's cache
// read full beforehand. It returns what the write alone cost the
// servers, its segments and its payload, after checking that every byte
// reads back as written and the holes' bytes as they were, through the
// handle and straight from the store.
func holeBudgetWrite(t *testing.T, tune Tuning) (st pfs.Stats, segs, payload int64) {
	t.Helper()
	const dim, chunk = 256, 64
	fsOpts := pfs.Options{Servers: 8, StripeSize: chunk * chunk * 8, Cost: benchCost}
	err := cluster.Run(1, func(c *cluster.Comm) error {
		f, err := Create(c, "write-through", Options{
			DType: Float64, ChunkShape: []int{chunk, chunk}, Bounds: []int{dim, dim}, FS: fsOpts, Tuning: tune,
		})
		if err != nil {
			return err
		}
		defer f.Close()
		all := NewBox([]int{0, 0}, []int{dim, dim})
		flat := make([]byte, dim*dim*8)
		for i := range flat {
			flat[i] = byte(i*7 + i/251)
		}
		if err := f.WriteSection(all, flat, RowMajor); err != nil {
			return err
		}
		if err := f.ReadSection(all, make([]byte, len(flat)), RowMajor); err != nil {
			return err
		}
		// Columns 21..234: 43 of 64 in each edge chunk.
		box := NewBox([]int{10, 21}, []int{118, 235})
		var p sectionPlan
		if _, err := f.sectionRuns(&p, box, RowMajor); err != nil {
			return err
		}
		segs = int64(len(p.runs)) // a stripe unit is one chunk: no run crosses one
		rows, cols := box.Hi[0]-box.Lo[0], box.Hi[1]-box.Lo[1]
		data := make([]byte, rows*cols*8)
		for i := range data {
			data[i] = byte(i*13 + 5)
		}
		payload = int64(len(data))
		f.fs.ResetStats()
		if err := f.WriteSection(box, data, RowMajor); err != nil {
			return err
		}
		st = f.fs.Stats()
		for r := 0; r < rows; r++ {
			at := ((box.Lo[0]+r)*dim + box.Lo[1]) * 8
			copy(flat[at:at+cols*8], data[r*cols*8:])
		}
		for _, g := range []*File{f, StoreView(f)} {
			back := make([]byte, len(flat))
			if err := g.ReadSection(all, back, RowMajor); err != nil {
				return err
			}
			if !bytes.Equal(back, flat) {
				t.Error("the array differs from what was written")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return st, segs, payload
}
