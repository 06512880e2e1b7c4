package main

import (
	"encoding/binary"
	"fmt"
	"path/filepath"

	"drxmp"
	"drxmp/internal/ec"
	"drxmp/internal/extent"
	"drxmp/internal/pfs"
	"drxmp/internal/place"
	"drxmp/internal/spill"
)

// replayer re-runs each layer's public functions on an op's own inputs
// right after the op, from outside the program, and records the replays
// as child spans of the op. One per driver: its buffers are not shared.
type replayer struct {
	scratch *pfs.FS      // same options as the array's store
	code    *ec.Code     // parity workloads only
	store   *spill.Store // spill workloads only
	buf     []byte
	parity  [][]byte
	qs      []int64
	runs    []extent.Run
}

func newReplayer(in *instance, dir string) (*replayer, error) {
	sp := in.sp
	id := instSeq.Add(1)
	scratch, err := pfs.Create(fmt.Sprintf("scratch-%d", id), sp.fs)
	if err != nil {
		return nil, err
	}
	// Fill the scratch store so replayed reads copy real bytes.
	if _, err := scratch.WriteAt(make([]byte, in.f.Meta().FileBytes()), 0); err != nil {
		return nil, err
	}
	rp := &replayer{scratch: scratch, buf: make([]byte, sp.maxPayload)}
	if sp.deadServer {
		scratch.SetInjector(&pfs.FaultPoint{Server: 0, Op: pfs.FaultReads, Permanent: true})
	}
	if m := sp.fs.Parity; m > 0 {
		if rp.code, err = ec.New(sp.fs.Servers-m, m); err != nil {
			return nil, err
		}
		for j := 0; j < m; j++ {
			rp.parity = append(rp.parity, make([]byte, sp.fs.StripeSize))
		}
	}
	if sp.spill {
		path := filepath.Join(dir, fmt.Sprintf("scratch-%d.spill", id))
		if rp.store, err = spill.Open(path, sp.tuning.SpillBytes); err != nil {
			return nil, err
		}
	}
	return rp, nil
}

func (rp *replayer) close() {
	if rp.store != nil {
		rp.store.Close() // removes the scratch spill file; nothing to lose
	}
	rp.scratch.Close() // in-memory scratch store
}

// chunkRows appends the uncoalesced file extents of b, one per chunk
// row, in the order the chunks were mapped: the same box -> extent
// translation the program does, redone from outside with core's public
// mapping so the layers below can be replayed on the op's real inputs.
func chunkRows(runs []extent.Run, qs []int64, b box) []extent.Run {
	const chunkBytes = chunkSide * chunkSide * elemSize
	k := 0
	for ci := b.r0 / chunkSide; ci <= (b.r1-1)/chunkSide; ci++ {
		for cj := b.c0 / chunkSide; cj <= (b.c1-1)/chunkSide; cj++ {
			r0, r1 := max(b.r0, ci*chunkSide), min(b.r1, (ci+1)*chunkSide)
			c0, c1 := max(b.c0, cj*chunkSide), min(b.c1, (cj+1)*chunkSide)
			for r := r0; r < r1; r++ {
				within := int64((r-ci*chunkSide)*chunkSide + c0 - cj*chunkSide)
				runs = append(runs, extent.Run{Off: qs[k]*chunkBytes + within*elemSize, Len: int64(c1-c0) * elemSize})
			}
			k++
		}
	}
	return runs
}

func encodeRuns(runs []extent.Run) []byte {
	out := make([]byte, 0, len(runs)*16)
	for _, r := range runs {
		out = binary.LittleEndian.AppendUint64(out, uint64(r.Off))
		out = binary.LittleEndian.AppendUint64(out, uint64(r.Len))
	}
	return out
}

func decodeRuns(b []byte) []extent.Run {
	runs := make([]extent.Run, len(b)/16)
	for i := range runs {
		runs[i].Off = int64(binary.LittleEndian.Uint64(b[i*16:]))
		runs[i].Len = int64(binary.LittleEndian.Uint64(b[i*16+8:]))
	}
	return runs
}

// ownedBytes sums the bytes of runs that dom assigns to each owner.
func ownedBytes(dom place.Domains, runs []extent.Run, ranks int) []int64 {
	out := make([]int64, ranks)
	for _, r := range runs {
		for off, left := r.Off, r.Len; left > 0; {
			take := min(dom.BlockEnd(off)-off, left)
			out[dom.Owner(off)] += take
			off += take
			left -= take
		}
	}
	return out
}

// replay runs the layer replays for op i under span root. On a
// multi-rank workload every rank calls it at the same point; ranks
// without a tracer still take part in the collective replays.
func (rp *replayer) replay(in *instance, root, i int, o op) {
	tr := in.tr
	space := in.f.Meta().Space
	n := o.box.bytes()

	rp.qs = rp.qs[:0]
	idx := make([]int, 2)
	tr.replay("core.map", root, i, func() int64 {
		for ci := o.box.r0 / chunkSide; ci <= (o.box.r1-1)/chunkSide; ci++ {
			for cj := o.box.c0 / chunkSide; cj <= (o.box.c1-1)/chunkSide; cj++ {
				idx[0], idx[1] = ci, cj
				rp.qs = append(rp.qs, space.MustMap(idx))
			}
		}
		return int64(len(rp.qs))
	})
	tr.replay("core.inverse", root, i, func() int64 {
		for _, q := range rp.qs {
			space.MustInverse(q, idx)
		}
		return int64(len(rp.qs))
	})

	rp.runs = chunkRows(rp.runs[:0], rp.qs, o.box)
	var mine []extent.Run
	tr.replay("extent.coalesce", root, i, func() int64 {
		mine = extent.Coalesce(rp.runs)
		return int64(len(rp.runs))
	})

	if o.kind == opRead {
		tr.replay("pfs.readv", root, i, func() int64 {
			rp.scratch.ReadV(mine, rp.buf[:n])
			return n
		})
	} else {
		tr.replay("pfs.writev", root, i, func() int64 {
			rp.scratch.WriteV(mine, in.payload(o))
			return n
		})
	}

	// The carving request of the step: every rank's runs, replicated.
	byRank := [][]extent.Run{mine}
	if in.c.Size() > 1 {
		blob := encodeRuns(mine)
		tr.replay("cluster.allgather", root, i, func() int64 {
			all, _ := in.c.Allgather(blob)
			byRank = byRank[:0]
			for _, b := range all {
				byRank = append(byRank, decodeRuns(b))
			}
			return int64(len(blob))
		})
	}
	req := place.Req{Lo: -1, Ranks: in.c.Size(), Stripe: rp.scratch.StripeSize(), Runs: byRank}
	for _, rr := range byRank {
		for _, r := range rr {
			if req.Lo < 0 || r.Off < req.Lo {
				req.Lo = r.Off
			}
			req.Hi = max(req.Hi, r.End())
			req.TotalBytes += r.Len
		}
	}
	var dom place.Domains
	tr.replay("place.carve", root, i, func() int64 {
		dom = place.ByteCyclic{}.Carve(req)
		return 1
	})
	if in.c.Size() > 1 {
		rp.replayExchange(in, root, i, o, dom, byRank)
	}
	if rp.code != nil {
		rp.replayEC(in, root, i, o, mine)
	}
	if rp.store != nil {
		rp.replaySpill(tr, root, i, mine)
	}
	if in.sp.http {
		// The same box straight through File, bypassing client and
		// server: what is left of the handler's span is the serving
		// tier's own time. A replayed write stores the same bytes again.
		b := drxmp.NewBox(o.box.lo(), o.box.hi())
		tr.replay("drxmp.section", root, i, func() int64 {
			if o.kind == opRead {
				in.f.ReadSection(b, rp.buf[:n], drxmp.RowMajor)
			} else {
				in.f.WriteSection(b, in.payload(o), drxmp.RowMajor)
			}
			return n
		})
	}
}

// replayExchange replays the two-phase exchange of a collective step
// with the step's own per-peer byte counts: a write ships each rank's
// bytes to the aggregators owning them, a read ships them back.
func (rp *replayer) replayExchange(in *instance, root, i int, o op, dom place.Domains, byRank [][]extent.Run) {
	me, size := in.c.Rank(), in.c.Size()
	// own[r][a]: bytes of rank r's runs that aggregator a owns.
	own := make([][]int64, size)
	for r := range own {
		own[r] = ownedBytes(dom, byRank[r], size)
	}
	send, expect := make([][]byte, size), make([]bool, size)
	var crossed int64
	for r := 0; r < size; r++ {
		out, back := own[me][r], own[r][me]
		if o.kind == opRead {
			out, back = back, out
		}
		send[r], expect[r] = rp.buf[:out], back > 0
		if r != me {
			crossed += out
		}
	}
	in.tr.replay("cluster.alltoallv", root, i, func() int64 {
		in.c.AlltoallvSparse(send, expect)
		return crossed
	})
	in.tr.replay("cluster.barrier", root, i, func() int64 {
		in.c.Barrier()
		return 1
	})
}

// replayEC replays the codec on the parity rows the op touches: one
// Encode per stripe row a write covers, one ReconstructData per
// stripe unit on the dead server a read covers.
func (rp *replayer) replayEC(in *instance, root, i int, o op, runs []extent.Run) {
	k, stripe := int64(rp.code.K()), rp.scratch.StripeSize()
	shards := make([][]byte, rp.code.K()+rp.code.M())
	fill := func() {
		for c := range shards[:k] {
			shards[c] = in.pool[int64(c)*stripe : int64(c+1)*stripe]
		}
		copy(shards[k:], rp.parity)
	}
	rows := map[int64]bool{}
	var dead int64
	for _, r := range runs {
		for u := r.Off / stripe; u <= (r.End()-1)/stripe; u++ {
			rows[u/k] = true
			if u%k == 0 {
				dead++
			}
		}
	}
	if o.kind == opWrite {
		in.tr.replay("ec.encode", root, i, func() int64 {
			for range rows {
				fill()
				rp.code.Encode(shards)
			}
			return int64(len(rows)) * k * stripe
		})
		return
	}
	in.tr.replay("ec.reconstruct", root, i, func() int64 {
		for u := int64(0); u < dead; u++ {
			fill()
			shards[0] = nil
			rp.code.ReconstructData(shards)
		}
		return dead * stripe
	})
}

// replaySpill replays the spill tier on the op's extents cut into
// sieve-sized blocks (the sieve block is the stripe): each block is
// demoted into a scratch store, then promoted back out.
func (rp *replayer) replaySpill(tr *tracer, root, i int, runs []extent.Run) {
	sieve := rp.scratch.StripeSize()
	blocks := make([]extent.Run, len(runs))
	for k, r := range runs {
		blocks[k] = extent.Align(r, sieve)
	}
	blocks = extent.Coalesce(blocks)
	tr.replay("spill.put", root, i, func() int64 {
		var put int64
		for _, b := range blocks {
			for off := b.Off; off < b.End(); off += sieve {
				if rp.store.Put(off, rp.buf[:sieve], false) {
					put += sieve
				}
			}
		}
		return put
	})
	tr.replay("spill.take", root, i, func() int64 {
		var got int64
		for _, b := range blocks {
			ps, _ := rp.store.Take(b.Off, b.Len)
			for _, p := range ps {
				got += int64(len(p.Data))
			}
		}
		return got
	})
}
