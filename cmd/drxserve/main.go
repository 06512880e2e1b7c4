// Command drxserve is the array-as-a-service front end: it opens (or
// demo-creates) extendible arrays and serves their sections over HTTP
// to many concurrent remote clients, with per-file admission control,
// cross-client request coalescing, and single-flight cold fills
// (package internal/serve).
//
// Usage:
//
//	drxserve [flags] <path> [<path>...]          serve existing arrays
//	drxserve -demo <n>x<m> [flags]               serve a demo array "demo"
//
// Each <path> names a disk-backed array pair (<path>.xmd + .xta...);
// the array is served as its base name, with the stripe layout its
// .xmd records (-servers and -stripe shape the -demo array only).
// Example:
//
//	drxserve -addr :8080 -cache 67108864 -window 1ms /data/climate
//	curl 'localhost:8080/v1/arrays/climate/section?lo=0,0&hi=16,16' -o part.bin
//	curl 'localhost:8080/v1/stats'
//	curl 'localhost:8080/readyz'     # 503 while draining after SIGTERM
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"drxmp"
	"drxmp/internal/cluster"
	"drxmp/internal/pfs"
	"drxmp/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	servers := flag.Int("servers", 4, "pfs I/O server count of the -demo array (an opened array's comes from its .xmd)")
	stripe := flag.Int64("stripe", 64<<10, "pfs stripe size in bytes of the -demo array (an opened array's comes from its .xmd)")
	window := flag.Duration("window", 500*time.Microsecond, "coalescing: longest a read queued behind an in-flight fetch is held to merge; an idle read never waits (0 disables)")
	maxReqs := flag.Int("max-inflight", 64, "admission: max in-flight requests per array (0 = unbounded)")
	maxBytes := flag.Int64("max-inflight-bytes", 256<<20, "admission: max in-flight payload bytes per array (0 = unbounded)")
	maxQueued := flag.Int("max-queued", 256, "admission: max queued requests per array before shedding with 503 (0 = unbounded)")
	reqTimeout := flag.Duration("request-timeout", 30*time.Second, "per-request handling timeout (0 disables)")
	shutdownTimeout := flag.Duration("shutdown-timeout", 5*time.Second, "graceful drain budget on SIGINT/SIGTERM")
	cache := flag.Int64("cache", 64<<20, "unified extent cache budget per array in bytes (0 disables)")
	readAhead := flag.Int64("readahead", 0, "sieve read-ahead in bytes (requires -cache > 0)")
	demo := flag.String("demo", "", "serve an in-memory demo float64 array of this shape, e.g. 256x256")
	demoChunk := flag.Int("demo-chunk", 64, "demo array chunk edge")
	flag.Parse()
	if *demo == "" && flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: drxserve [flags] <path>... | drxserve -demo <n>x<m> [flags]")
		os.Exit(2)
	}

	tuning := drxmp.Tuning{CacheBytes: *cache, ReadAheadBytes: *readAhead}
	cfg := serve.Config{
		CoalesceWindow:      *window,
		MaxInFlightRequests: *maxReqs,
		MaxInFlightBytes:    *maxBytes,
		MaxQueuedRequests:   *maxQueued,
		RequestTimeout:      *reqTimeout,
	}

	// The server is one rank: a front end over the shared store, not a
	// compute job. cluster.Run(1) provides the communicator the library
	// expects and joins when serving ends.
	err := cluster.Run(1, func(c *cluster.Comm) error {
		srv := serve.New(cfg)
		type served struct {
			name string
			f    *drxmp.File
		}
		var files []served
		teardown := false
		defer func() {
			if teardown {
				return
			}
			for _, s := range files {
				s.f.Close()
			}
		}()
		if *demo != "" {
			f, err := demoArray(c, *demo, *demoChunk, *servers, *stripe, tuning)
			if err != nil {
				return err
			}
			files = append(files, served{"demo", f})
			if err := srv.Register("demo", f); err != nil {
				return err
			}
			fmt.Printf("drxserve: serving demo array %q (%v)\n", "demo", f.Bounds())
		}
		for _, path := range flag.Args() {
			f, err := drxmp.OpenWith(c, path, drxmp.OpenOptions{Tuning: tuning})
			if err != nil {
				return fmt.Errorf("open %s: %w", path, err)
			}
			name := filepath.Base(path)
			files = append(files, served{name, f})
			if err := srv.Register(name, f); err != nil {
				return err
			}
			fmt.Printf("drxserve: serving %q from %s (%v)\n", name, path, f.Bounds())
		}

		httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
		errCh := make(chan error, 1)
		go func() { errCh <- httpSrv.ListenAndServe() }()
		fmt.Printf("drxserve: listening on %s\n", *addr)

		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		select {
		case err := <-errCh:
			return err
		case <-sig:
			fmt.Println("drxserve: shutting down")
			// Flip readiness first so load balancers and drxclient.Ready
			// stop steering new work here, then drain in-flight requests
			// within the shutdown budget.
			srv.SetDraining(true)
			ctx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
			defer cancel()
			err := httpSrv.Shutdown(ctx)
			// With the handlers drained, close the files and report any
			// failure: every PUT section is on the store when its handler
			// returns, so nothing is left to flush.
			teardown = true
			for _, s := range files {
				if cerr := s.f.Close(); cerr != nil {
					fmt.Fprintf(os.Stderr, "drxserve: close %s: %v\n", s.name, cerr)
					if err == nil {
						err = fmt.Errorf("close %s: %w", s.name, cerr)
					}
				}
			}
			return err
		}
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "drxserve:", err)
		os.Exit(1)
	}
}

// demoArray creates an in-memory float64 array of the given NxM...
// shape, seeded with a deterministic ramp so clients have bytes to
// fetch.
func demoArray(c *cluster.Comm, shape string, chunk, servers int, stripe int64, tuning drxmp.Tuning) (*drxmp.File, error) {
	var bounds []int
	for _, part := range strings.Split(shape, "x") {
		var n int
		if _, err := fmt.Sscanf(part, "%d", &n); err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -demo shape %q", shape)
		}
		bounds = append(bounds, n)
	}
	chunkShape := make([]int, len(bounds))
	for i := range chunkShape {
		chunkShape[i] = chunk
	}
	f, err := drxmp.Create(c, "demo", drxmp.Options{
		DType: drxmp.Float64, ChunkShape: chunkShape, Bounds: bounds,
		FS:     pfs.Options{Servers: servers, StripeSize: stripe},
		Tuning: tuning,
	})
	if err != nil {
		return nil, err
	}
	full := drxmp.NewBox(make([]int, len(bounds)), bounds)
	vals := make([]float64, full.Volume())
	for i := range vals {
		vals[i] = float64(i)
	}
	if err := f.WriteSectionFloat64s(full, vals, drxmp.RowMajor); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}
