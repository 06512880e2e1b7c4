package drxmp

import "drxmp/internal/mpiio"

// BenchCost is the benchmark's service-time model (benchCost).
var BenchCost = benchCost

// StoreView returns a cacheless handle on f's store and metadata: its
// reads go straight to the servers, whatever f's Tuning. It is never
// closed; f owns the store.
func StoreView(f *File) *File {
	io, _ := mpiio.Open(f.comm, f.fs, Tuning{}) // a cacheless Open cannot fail
	return &File{comm: f.comm, m: f.m, fs: f.fs, io: io, path: f.path, kind: f.kind, cyclicBlock: f.cyclicBlock}
}
