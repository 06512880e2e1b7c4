package exp

import (
	"fmt"
	"time"

	"drxmp"
	"drxmp/drx"
	"drxmp/internal/core"
	"drxmp/internal/dra"
	"drxmp/internal/dtype"
	"drxmp/internal/grid"
	"drxmp/internal/hdf5sim"
	"drxmp/internal/ncdf"
	"drxmp/internal/pfs"
	"drxmp/internal/report"
	"drxmp/internal/workload"
)

// Scale controls experiment sizes so the same code serves quick test
// runs and the full harness.
type Scale int

const (
	// Quick is used by unit tests and -short bench runs.
	Quick Scale = iota
	// Full is the harness default.
	Full
)

func (s Scale) pick(quick, full int) int {
	if s == Quick {
		return quick
	}
	return full
}

// E1ExtendCost measures the cost of extending a "non-free" dimension:
// the axial chunked file appends, the row-major (DRA) file reorganizes,
// the netCDF-like file rewrites on redefine, the HDF5-like store only
// updates metadata. Reproduces the paper's §I claim that conventional
// out-of-core extension "can be very expensive".
func E1ExtendCost(sc Scale) []*report.Table {
	t := report.New("E1: cost of extending dimension 1 by one chunk row",
		"N (NxN f64)", "format", "bytes moved", "io requests", "sim time")
	cost := pfs.DefaultCost()
	for _, n := range []int{sc.pick(64, 128), sc.pick(128, 256), sc.pick(256, 512)} {
		chunk := n / 8
		// --- axial (drx) ---
		a, err := drx.Create("e1ax", drx.Options{
			DType: drx.Float64, ChunkShape: []int{chunk, chunk}, Bounds: []int{n, n},
			FS: pfs.Options{Cost: cost},
		})
		if err != nil {
			t.AddNote("axial: %v", err)
			continue
		}
		fillDrx(a, n)
		a.FS().ResetStats()
		before := a.FS().Stats()
		if err := a.Extend(1, chunk); err != nil {
			t.AddNote("axial extend: %v", err)
		}
		d := a.FS().Stats().Sub(before)
		t.AddRow(n, "drx-axial", report.Bytes(d.Bytes()), d.Requests(), d.Elapsed())
		a.Close()

		// --- DRA row-major (reorganization) ---
		ra, err := dra.Create("e1ra", dtype.Float64, []int{n, n}, pfs.Options{Cost: cost})
		if err != nil {
			t.AddNote("dra: %v", err)
			continue
		}
		fillDra(ra, n)
		ra.FS().ResetStats()
		before = ra.FS().Stats()
		if err := ra.Extend(1, chunk); err != nil {
			t.AddNote("dra extend: %v", err)
		}
		d = ra.FS().Stats().Sub(before)
		t.AddRow(n, "dra-rowmajor", report.Bytes(d.Bytes()), d.Requests(), d.Elapsed())
		ra.Close()

		// --- netCDF-like (redefine) ---
		nc, err := ncdf.Create("e1nc", []ncdf.Var{{Name: "v", DType: dtype.Float64, Fixed: grid.Shape{n}}},
			pfs.Options{Cost: cost})
		if err != nil {
			t.AddNote("ncdf: %v", err)
			continue
		}
		_ = nc.ExtendRecords(n)
		buf := make([]byte, int64(n)*int64(n)*8)
		_ = nc.WriteVar(0, 0, n, buf)
		nc.FS().ResetStats()
		before = nc.FS().Stats()
		if err := nc.RedefExtend(0, 0, chunk); err != nil {
			t.AddNote("ncdf redef: %v", err)
		}
		d = nc.FS().Stats().Sub(before)
		t.AddRow(n, "ncdf-redef", report.Bytes(d.Bytes()), d.Requests(), d.Elapsed())
		nc.Close()

		// --- HDF5-like (metadata only) ---
		h, err := hdf5sim.Create("e1h5", hdf5sim.Options{
			DType: dtype.Float64, ChunkShape: []int{chunk, chunk}, Bounds: []int{n, n},
			FS: pfs.Options{Cost: cost},
		})
		if err != nil {
			t.AddNote("hdf5sim: %v", err)
			continue
		}
		fillH5(h, n)
		h.DataFS().ResetStats()
		before = h.DataFS().Stats()
		if err := h.Extend(1, chunk); err != nil {
			t.AddNote("hdf5 extend: %v", err)
		}
		d = h.DataFS().Stats().Sub(before)
		t.AddRow(n, "hdf5-btree", report.Bytes(d.Bytes()), d.Requests(), d.Elapsed())
		h.Close()
	}
	t.AddNote("shape check: drx-axial and hdf5-btree move ~0 bytes; dra and ncdf move ~the whole array")
	return []*report.Table{t}
}

// E2AccessOrder measures scanning a stored array in matching vs
// transposed order: the row-major file degrades badly on column scans
// ("abysmal performance"); the chunked axial file fetches each chunk
// once either way, though a row scan streams a chunk row's back-to-back
// chunks as one request, so its request count is not the column scan's.
func E2AccessOrder(sc Scale) []*report.Table {
	n := sc.pick(128, 512)
	chunk := 32
	cost := pfs.DefaultCost()
	t := report.New(fmt.Sprintf("E2: full scan of an %dx%d f64 array", n, n),
		"format", "scan order", "io requests", "seeks", "sim time")

	// Row-major baseline.
	for _, colScan := range []bool{false, true} {
		ra, _ := dra.Create("e2ra", dtype.Float64, []int{n, n}, pfs.Options{Cost: cost})
		fillDra(ra, n)
		ra.FS().ResetStats()
		buf := make([]byte, int64(n)*8)
		if !colScan {
			for i := 0; i < n; i++ {
				_ = ra.ReadBox(grid.NewBox([]int{i, 0}, []int{i + 1, n}), buf, grid.RowMajor)
			}
		} else {
			for j := 0; j < n; j++ {
				_ = ra.ReadBox(grid.NewBox([]int{0, j}, []int{n, j + 1}), buf, grid.RowMajor)
			}
		}
		st := ra.FS().Stats()
		t.AddRow("dra-rowmajor", scanName(colScan), st.Requests(), st.Seeks(), st.Elapsed())
		ra.Close()
	}
	// Axial chunked.
	for _, colScan := range []bool{false, true} {
		a, _ := drx.Create("e2ax", drx.Options{
			DType: drx.Float64, ChunkShape: []int{chunk, chunk}, Bounds: []int{n, n},
			FS:     pfs.Options{Cost: cost},
			Tuning: drxmp.Tuning{CacheBytes: int64(n/chunk) * int64(chunk*chunk*8)}, // one chunk row
		})
		fillDrx(a, n)
		a.FS().ResetStats()
		buf := make([]byte, int64(n)*8)
		if !colScan {
			for i := 0; i < n; i++ {
				_ = a.Read(drx.NewBox([]int{i, 0}, []int{i + 1, n}), buf, drx.RowMajor)
			}
		} else {
			for j := 0; j < n; j++ {
				_ = a.Read(drx.NewBox([]int{0, j}, []int{n, j + 1}), buf, drx.RowMajor)
			}
		}
		st := a.FS().Stats()
		t.AddRow("drx-axial", scanName(colScan), st.Requests(), st.Seeks(), st.Elapsed())
		a.Close()
	}
	t.AddNote("shape check: dra column scan ≫ dra row scan; drx scans fetch each chunk once (row scan: one request per chunk row; column scan: one per chunk)")
	return []*report.Table{t}
}

func scanName(col bool) string {
	if col {
		return "column (Fortran)"
	}
	return "row (C)"
}

// E3MapCost compares what address resolution needs beyond arithmetic:
// conventional row-major offsets and F* with growing axial-record
// counts E read no index, while a B-tree pays index I/O per lookup as
// its chunk count grows — the O(k+log E) vs O(log n) contrast
// ("computed access ... similar to hashing"). F*'s lookup time in E is
// BenchmarkMapManyRecords in internal/core.
func E3MapCost(sc Scale) []*report.Table {
	t := report.New("E3: chunk address resolution cost",
		"method", "state size", "index I/O per op")
	t.AddRow("row-major arithmetic", "-", 0)

	// F* with E expansion records.
	for _, ex := range []int{2, 16, 128, 1024} {
		s, _ := core.NewSpace([]int{2, 2, 2})
		for i := 0; i < ex; i++ {
			_ = s.Extend((i%2)+1, 1) // alternate dims 1,2: every step adds a record
		}
		t.AddRow("F* (axial)", fmt.Sprintf("E=%d records", s.NumRecords()), 0)
	}

	// B-tree lookup with n chunks.
	for _, n := range []int{sc.pick(256, 1024), sc.pick(4096, 65536)} {
		h, _ := hdf5sim.Create("e3h5", hdf5sim.Options{
			DType: dtype.Float64, ChunkShape: []int{1}, Bounds: []int{16 << 20}, Fanout: 16,
		})
		for i := 0; i < n; i++ {
			_ = h.Set([]int{i * 8}, 1)
		}
		probes := h.Stats().NodeReads
		lk := sc.pick(2000, 20000)
		for i := 0; i < lk; i++ {
			_, _ = h.At([]int{(i % n) * 8})
		}
		ioPer := float64(h.Stats().NodeReads-probes) / float64(lk)
		t.AddRow("B-tree lookup", fmt.Sprintf("n=%d chunks", n), ioPer)
		h.Close()
	}
	t.AddNote("shape check: F* reads no index at any E; a B-tree lookup reads one node per level, more as n grows")
	return []*report.Table{t}
}

// E7Formats runs one workload set across the four formats: sequential
// write, extension along dim 1, row scan, column scan, random boxes.
func E7Formats(sc Scale) []*report.Table {
	n := sc.pick(96, 256)
	chunk := n / 8
	cost := pfs.DefaultCost()
	t := report.New(fmt.Sprintf("E7: format comparison on an %dx%d f64 workload set", n, n),
		"format", "write", "extend dim1", "row scan", "col scan", "16 random boxes")

	boxes := workload.RandomBoxes([]int{n, n}, 16, n/4, 99)
	rowBuf := make([]byte, int64(n)*8)

	// drx-axial
	{
		a, _ := drx.Create("e7ax", drx.Options{
			DType: drx.Float64, ChunkShape: []int{chunk, chunk}, Bounds: []int{n, n},
			FS:     pfs.Options{Cost: cost},
			Tuning: drxmp.Tuning{CacheBytes: 8 * int64(chunk*chunk*8)}, // eight chunks
		})
		wT := timedStat(a.FS(), func() { fillDrx(a, n) })
		eT := timedStat(a.FS(), func() { _ = a.Extend(1, chunk) })
		rT := timedStat(a.FS(), func() {
			for i := 0; i < n; i++ {
				_ = a.Read(drx.NewBox([]int{i, 0}, []int{i + 1, n}), rowBuf, drx.RowMajor)
			}
		})
		cT := timedStat(a.FS(), func() {
			for j := 0; j < n; j++ {
				_ = a.Read(drx.NewBox([]int{0, j}, []int{n, j + 1}), rowBuf, drx.RowMajor)
			}
		})
		bT := timedStat(a.FS(), func() {
			for _, b := range boxes {
				buf := make([]byte, b.Volume()*8)
				_ = a.Read(b, buf, drx.RowMajor)
			}
		})
		t.AddRow("drx-axial", wT, eT, rT, cT, bT)
		a.Close()
	}
	// hdf5sim (charge data+index to the same table via data fs; index fs separate note)
	{
		h, _ := hdf5sim.Create("e7h5", hdf5sim.Options{
			DType: dtype.Float64, ChunkShape: []int{chunk, chunk}, Bounds: []int{n, n},
			FS: pfs.Options{Cost: cost},
		})
		combined := func(fn func()) time.Duration {
			b1, b2 := h.DataFS().Stats(), h.IndexFS().Stats()
			fn()
			return h.DataFS().Stats().Sub(b1).Elapsed() + h.IndexFS().Stats().Sub(b2).Elapsed()
		}
		wT := combined(func() { fillH5(h, n) })
		eT := combined(func() { _ = h.Extend(1, chunk) })
		rT := combined(func() {
			for i := 0; i < n; i++ {
				_ = h.ReadBox(grid.NewBox([]int{i, 0}, []int{i + 1, n}), rowBuf, grid.RowMajor)
			}
		})
		cT := combined(func() {
			for j := 0; j < n; j++ {
				_ = h.ReadBox(grid.NewBox([]int{0, j}, []int{n, j + 1}), rowBuf, grid.RowMajor)
			}
		})
		bT := combined(func() {
			for _, b := range boxes {
				buf := make([]byte, b.Volume()*8)
				_ = h.ReadBox(b, buf, grid.RowMajor)
			}
		})
		t.AddRow("hdf5-btree", wT, eT, rT, cT, bT)
		h.Close()
	}
	// dra row-major
	{
		ra, _ := dra.Create("e7ra", dtype.Float64, []int{n, n}, pfs.Options{Cost: cost})
		wT := timedStat(ra.FS(), func() { fillDra(ra, n) })
		eT := timedStat(ra.FS(), func() { _ = ra.Extend(1, chunk) })
		rT := timedStat(ra.FS(), func() {
			for i := 0; i < n; i++ {
				_ = ra.ReadBox(grid.NewBox([]int{i, 0}, []int{i + 1, n + chunk}), make([]byte, int64(n+chunk)*8), grid.RowMajor)
			}
		})
		cT := timedStat(ra.FS(), func() {
			for j := 0; j < n; j++ {
				_ = ra.ReadBox(grid.NewBox([]int{0, j}, []int{n, j + 1}), rowBuf, grid.RowMajor)
			}
		})
		bT := timedStat(ra.FS(), func() {
			for _, b := range boxes {
				buf := make([]byte, b.Volume()*8)
				_ = ra.ReadBox(b, buf, grid.RowMajor)
			}
		})
		t.AddRow("dra-rowmajor", wT, eT, rT, cT, bT)
		ra.Close()
	}
	// ncdf (records along dim 0; extend dim1 = redefine)
	{
		nc, _ := ncdf.Create("e7nc", []ncdf.Var{{Name: "v", DType: dtype.Float64, Fixed: grid.Shape{n}}},
			pfs.Options{Cost: cost})
		wT := timedStat(nc.FS(), func() {
			_ = nc.ExtendRecords(n)
			buf := make([]byte, int64(n)*int64(n)*8)
			_ = nc.WriteVar(0, 0, n, buf)
		})
		eT := timedStat(nc.FS(), func() { _ = nc.RedefExtend(0, 0, chunk) })
		rT := timedStat(nc.FS(), func() {
			for i := 0; i < n; i++ {
				_ = nc.ReadVar(0, i, i+1, make([]byte, int64(n+chunk)*8))
			}
		})
		// Column scan of a record file = one element per record.
		cT := timedStat(nc.FS(), func() {
			buf := make([]byte, int64(n+chunk)*8)
			for j := 0; j < n; j++ {
				for i := 0; i < n; i++ {
					_ = nc.ReadVar(0, i, i+1, buf)
				}
				break // one full strided pass is enough to show the shape
			}
		})
		bT := timedStat(nc.FS(), func() {
			for range boxes {
				_ = nc.ReadVar(0, 0, 4, make([]byte, 4*int64(n+chunk)*8))
			}
		})
		t.AddRow("ncdf-record", wT, eT, rT, cT, bT)
		nc.Close()
	}
	t.AddNote("shape check: only drx-axial and hdf5-btree extend cheaply; drx beats hdf5 on access (no index I/O)")
	return []*report.Table{t}
}

// E10Transpose compares reading a chunked axial file directly into
// Fortran order against the explicit out-of-core transpose a row-major
// file needs.
func E10Transpose(sc Scale) []*report.Table {
	n := sc.pick(128, 384)
	chunk := 32
	cost := pfs.DefaultCost()
	t := report.New(fmt.Sprintf("E10: materializing a %dx%d array in Fortran order", n, n),
		"method", "bytes transferred", "io requests", "sim time")

	// drx: single read with order=ColMajor and no cache, so the row
	// counts exactly the bytes the read moves.
	a, _ := drx.Create("e10ax", drx.Options{
		DType: drx.Float64, ChunkShape: []int{chunk, chunk}, Bounds: []int{n, n},
		FS: pfs.Options{Cost: cost},
	})
	fillDrx(a, n)
	a.FS().ResetStats()
	full := drx.NewBox([]int{0, 0}, []int{n, n})
	buf := make([]byte, full.Volume()*8)
	_ = a.Read(full, buf, drx.ColMajor)
	st := a.FS().Stats()
	t.AddRow("drx on-the-fly (read F-order)", st.Bytes(), st.Requests(), st.Elapsed())
	a.Close()

	// dra: out-of-core transpose = read tiles in row order, write the
	// transposed file, then read it sequentially.
	ra, _ := dra.Create("e10ra", dtype.Float64, []int{n, n}, pfs.Options{Cost: cost})
	fillDra(ra, n)
	tr, _ := dra.Create("e10tr", dtype.Float64, []int{n, n}, pfs.Options{Cost: cost})
	ra.FS().ResetStats()
	tile := 32
	tbuf := make([]byte, int64(tile)*int64(tile)*8)
	for i := 0; i < n; i += tile {
		for j := 0; j < n; j += tile {
			src := grid.NewBox([]int{i, j}, []int{i + tile, j + tile})
			_ = ra.ReadBox(src, tbuf, grid.ColMajor) // transpose in memory
			dst := grid.NewBox([]int{j, i}, []int{j + tile, i + tile})
			_ = tr.WriteBox(dst, tbuf, grid.RowMajor)
		}
	}
	_ = tr.ReadBox(grid.BoxOf(grid.Shape{n, n}), buf, grid.RowMajor)
	stA := ra.FS().Stats()
	stB := tr.FS().Stats()
	t.AddRow("dra explicit transpose (read+write+read)",
		stA.Bytes()+stB.Bytes(), stA.Requests()+stB.Requests(), stA.Elapsed()+stB.Elapsed())
	ra.Close()
	tr.Close()
	t.AddNote("shape check: on-the-fly moves the array once; the explicit transpose moves it three times")
	return []*report.Table{t}
}

// --- fill helpers ---

func fillDrx(a *drx.Array, n int) {
	full := drx.NewBox([]int{0, 0}, []int{n, n})
	_ = a.WriteFloat64s(full, workload.FillBox(full, grid.RowMajor), drx.RowMajor)
}

func fillDra(a *dra.Array, n int) {
	full := grid.BoxOf(grid.Shape{n, n})
	_ = a.WriteBox(full, dtype.EncodeFloat64s(dtype.Float64, workload.FillBox(full, grid.RowMajor)), grid.RowMajor)
}

func fillH5(h *hdf5sim.Store, n int) {
	full := grid.BoxOf(grid.Shape{n, n})
	_ = h.WriteBox(full, dtype.EncodeFloat64s(dtype.Float64, workload.FillBox(full, grid.RowMajor)), grid.RowMajor)
}

// timedStat runs fn and returns the simulated elapsed time it added.
func timedStat(fs *pfs.FS, fn func()) time.Duration {
	before := fs.Stats()
	fn()
	return fs.Stats().Sub(before).Elapsed()
}
