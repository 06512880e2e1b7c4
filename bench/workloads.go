package main

import (
	"math/rand"
	"time"

	"drxmp"
	"drxmp/internal/pfs"
	"drxmp/internal/serve"
)

// cost is the service-time model every workload's store charges:
// pfs.DefaultCost's shape scaled to 100 µs per request, 1 ms per seek
// and 4 ns per byte.
func cost() pfs.CostModel {
	return pfs.CostModel{
		RequestOverhead: 100 * time.Microsecond,
		SeekLatency:     time.Millisecond,
		ByteTime:        4 * time.Nanosecond,
	}
}

// spec is one workload's fixed configuration. Every knob not set here
// is left at the program's default.
type spec struct {
	name, why string
	// dim is the initial array edge (dim x dim float64, 64x64 chunks).
	dim int
	// ranks is the cluster size; drivers the closed-loop drivers.
	ranks, drivers int
	fs             pfs.Options
	tuning         drxmp.Tuning
	// spill gives the array a spill file in the work directory.
	spill bool
	// realTimePlain runs the plain pass with CostModel.RealTime, so the
	// server queues build and the elevator has requests to merge.
	realTimePlain bool
	// deadServer makes server 0 fail every read (degraded reads).
	deadServer bool
	// http drives the array through drxclient -> serve over loopback.
	http bool
	// unit names what gen counts; pairedRate and plainRate are units per
	// second of -seconds, fixing the op counts of the two passes, and
	// tracedUnits sizes the traced run (at most 300 ops). Unit counts are
	// whole multiples of block.
	unit                  string
	pairedRate, plainRate float64
	tracedUnits, block    int
	// episode, when set, cuts every pass into episodes of that many
	// units, each on a fresh array.
	episode int
	// gen draws the op list of each driver for n units.
	gen func(rng *rand.Rand, n int) [][]op
	// maxPayload bounds one op's payload bytes.
	maxPayload int64
}

// serveConfig is cmd/drxserve's default configuration.
var serveConfig = serve.Config{
	CoalesceWindow:      500 * time.Microsecond,
	MaxInFlightRequests: 64,
	MaxInFlightBytes:    256 << 20,
	MaxQueuedRequests:   256,
	RequestTimeout:      30 * time.Second,
}

var specs = []*spec{
	{
		name: "section_mixed",
		why:  "bare software path: core mapping, extent, drxmp run building and scatter/gather, pfs dispatch; no cache, collective, parity or HTTP",
		dim:  2048, ranks: 1, drivers: 1,
		fs:   pfs.Options{Servers: 8, Cost: cost()},
		unit: "ops", pairedRate: 600, plainRate: 200, tracedUnits: 300, block: blockOps,
		gen: func(rng *rand.Rand, n int) [][]op {
			return [][]op{genSections(rng, n, 0, 2048, 2048, sectionTemplate(6, 200, 300))}
		},
		maxPayload: 300 * 300 * elemSize,
	},
	{
		name: "collective_timestep",
		why:  "the paper's use: a growing array written by row slabs and read by column slabs; cluster exchange, mpiio two-phase, place carving, pfs queues",
		dim:  1024, ranks: 2, drivers: 2,
		fs:            pfs.Options{Servers: 8, Scheduler: pfs.Elevator, Cost: cost()},
		realTimePlain: true,
		unit:          "steps", pairedRate: 20, plainRate: 6, tracedUnits: 100,
		gen:        func(rng *rand.Rand, n int) [][]op { return genTimesteps(rng, n, 1024) },
		maxPayload: 1024 * 640 * elemSize,
	},
	{
		name: "outofcore_scan",
		why:  "working set 4x the program's own cache: extent cache, sieve, read-ahead, write-behind, spill and tune decide the cost",
		dim:  1024, ranks: 1, drivers: 1,
		fs: pfs.Options{Servers: 4, Scheduler: pfs.Elevator, Cost: cost()},
		tuning: drxmp.Tuning{
			CacheBytes:       2 << 20,
			SpillBytes:       4 << 20,
			ReadAheadBytes:   128 << 10,
			WriteBehindBytes: 1 << 20,
		},
		spill:         true,
		realTimePlain: true,
		unit:          "sweeps", pairedRate: 5, plainRate: 1.5, tracedUnits: 10,
		gen:        func(rng *rand.Rand, n int) [][]op { return [][]op{genSweeps(rng, n, 1024)} },
		maxPayload: 1024 * 320 * elemSize,
	},
	{
		name: "parity_degraded",
		why:  "section_mixed's loop on a 6+2 striped array with server 0 dead: ec encode on every write, reconstruct on reads that touch server 0",
		dim:  1024, ranks: 1, drivers: 1,
		fs:         pfs.Options{Servers: 8, Parity: 2, StripeSize: 16 << 10, Cost: cost()},
		deadServer: true,
		unit:       "ops", pairedRate: 50, plainRate: 30, tracedUnits: 300, block: blockOps,
		gen: func(rng *rand.Rand, n int) [][]op {
			return [][]op{genSections(rng, n, 0, 1024, 1024, sectionTemplate(6, 48, 96))}
		},
		maxPayload: 96 * 96 * elemSize,
	},
	{
		name: "serve_mixed",
		why:  "full path client -> server -> drxmp -> pfs under drxserve's defaults, array smaller than its cache; reads and writes scored apart",
		dim:  1024, ranks: 1, drivers: 2,
		fs:     pfs.Options{Servers: 4, StripeSize: 64 << 10, Cost: cost()},
		tuning: drxmp.Tuning{CacheBytes: 64 << 20},
		http:   true,
		unit:   "ops_per_client", pairedRate: 60, plainRate: 40, tracedUnits: 100, block: blockOps, episode: 100,
		gen: func(rng *rand.Rand, n int) [][]op {
			// Each client reads and writes only its own half of the rows,
			// so no read races a write and the oracle stays exact.
			t := sectionTemplate(4, 64, 128)
			a, b := rand.New(rand.NewSource(rng.Int63())), rand.New(rand.NewSource(rng.Int63()))
			return [][]op{genSections(a, n, 0, 512, 1024, t), genSections(b, n, 512, 1024, 1024, t)}
		},
		maxPayload: 128 * 128 * elemSize,
	},
}

func specByName(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}
