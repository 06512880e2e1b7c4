package drxmp_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"drxmp"
	"drxmp/internal/cluster"
	"drxmp/internal/drxclient"
	"drxmp/internal/serve"
)

// Chaos suite: the resilient client against a serving tier that
// misbehaves — injected transport faults on every pattern the
// FaultTransport knows, and a hard kill-and-restart of the HTTP server
// mid-workload. In every case the workload must complete with
// byte-identical data, read-your-write must hold, and nothing may leak:
// no hung goroutines, no admission budget still held.

// chaosWorkload runs workers concurrent read-your-write loops against
// arr through cl. Worker w owns the row band [w*bandRows, (w+1)*bandRows)
// so bands never overlap; each iteration PUTs a fresh deterministic
// pattern over the band and GETs it back expecting exactly those bytes.
// gate, if set, is called before each iteration; an error from it ends
// the worker. Returns the final payload per worker for end-state
// verification.
func chaosWorkload(ctx context.Context, cl *drxclient.Client, arr string, workers, iters, bandRows, cols int, gate func() error) ([][]byte, error) {
	const es = 8 // float64
	final := make([][]byte, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lo := []int{w * bandRows, 0}
			hi := []int{(w + 1) * bandRows, cols}
			payload := make([]byte, bandRows*cols*es)
			for it := 0; it < iters; it++ {
				if gate != nil {
					if err := gate(); err != nil {
						errs[w] = fmt.Errorf("worker %d iter %d: %w", w, it, err)
						return
					}
				}
				for i := range payload {
					payload[i] = byte(w*31 + it*7 + i)
				}
				if err := cl.WriteSection(ctx, arr, lo, hi, payload); err != nil {
					errs[w] = fmt.Errorf("worker %d iter %d write: %w", w, it, err)
					return
				}
				got, err := cl.ReadSection(ctx, arr, lo, hi)
				if err != nil {
					errs[w] = fmt.Errorf("worker %d iter %d read: %w", w, it, err)
					return
				}
				if !bytes.Equal(got, payload) {
					errs[w] = fmt.Errorf("worker %d iter %d: read-your-write violated (%d bytes differ from written)", w, it, len(got))
					return
				}
			}
			final[w] = append([]byte(nil), payload...)
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return final, nil
}

// verifyEndState reads every band back (via the client AND directly)
// and requires the bytes each worker last wrote.
func verifyEndState(ctx context.Context, cl *drxclient.Client, f *drxmp.File, arr string, final [][]byte, bandRows, cols int) error {
	const es = 8
	for w, want := range final {
		lo := []int{w * bandRows, 0}
		hi := []int{(w + 1) * bandRows, cols}
		got, err := cl.ReadSection(ctx, arr, lo, hi)
		if err != nil {
			return fmt.Errorf("final served read band %d: %w", w, err)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("band %d: served end state differs from last write", w)
		}
		direct := make([]byte, bandRows*cols*es)
		if err := f.ReadSection(drxmp.NewBox(lo, hi), direct, drxmp.RowMajor); err != nil {
			return fmt.Errorf("final direct read band %d: %w", w, err)
		}
		if !bytes.Equal(direct, want) {
			return fmt.Errorf("band %d: direct end state differs from last write", w)
		}
	}
	return nil
}

// waitGoroutines polls until the goroutine count drops to at most
// want+slack, failing after the deadline. Transport keep-alive and
// handler teardown are asynchronous; polling is the honest check.
// settle, if non-nil, runs each poll so connections that went idle
// after the previous sweep (hedge losers, abandoned retries) still
// get reaped before the deadline.
func waitGoroutines(want, slack int, d time.Duration, settle func()) error {
	deadline := time.Now().Add(d)
	for {
		if settle != nil {
			settle()
		}
		n := runtime.NumGoroutine()
		if n <= want+slack {
			return nil
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			return fmt.Errorf("goroutines leaked: %d now vs %d baseline (+%d slack)\n%s", n, want, slack, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// assertAdmissionIdle polls until no array holds admission budget: the
// handler of a hedge's losing attempt releases its slot only once it
// sees the cancel, which can be after the winning call returned.
func assertAdmissionIdle(srv *serve.Server) error {
	deadline := time.Now().Add(2 * time.Second)
	for {
		var held error
		for _, a := range srv.Stats().Arrays {
			if a.Admission.InFlight != 0 || a.Admission.InFlightBytes != 0 || a.Admission.Queued != 0 {
				held = fmt.Errorf("array %s still holds admission budget: %+v", a.Name, a.Admission)
			}
		}
		if held == nil || time.Now().After(deadline) {
			return held
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosFaultyTransport drives the workload through a transport that
// injects every fault pattern on a schedule: dropped connections,
// 503/429 shedding (with Retry-After), truncated GET bodies, PUT
// connection resets after the server applied the write, and straggler
// delays that the hedger races. The workload must complete exactly as
// if the network were clean.
func TestChaosFaultyTransport(t *testing.T) {
	const (
		workers  = 6
		iters    = 5
		bandRows = 8
		cols     = 48
	)
	err := cluster.Run(1, func(c *cluster.Comm) error {
		f, err := drxmp.Create(c, "chaos-fault", drxmp.Options{
			DType: drxmp.Float64, ChunkShape: []int{16, 16}, Bounds: []int{workers * bandRows, cols},
		})
		if err != nil {
			return err
		}
		defer f.Close()
		srv := serve.New(serve.Config{
			CoalesceWindow:      200 * time.Microsecond,
			MaxInFlightRequests: 32,
			MaxQueuedRequests:   128,
			RequestTimeout:      10 * time.Second,
		})
		if err := srv.Register("arr", f); err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		httpSrv := &http.Server{Handler: srv.Handler()}
		go httpSrv.Serve(ln)
		defer httpSrv.Close()

		rules := []*drxclient.FaultRule{
			{Mode: drxclient.FaultDrop, Every: 17},
			{Mode: drxclient.FaultStatus, Status: 503, RetryAfter: 0, Every: 13},
			{Mode: drxclient.FaultStatus, Status: 429, Every: 23},
			{Method: http.MethodGet, Mode: drxclient.FaultTruncate, TruncateTo: 11, Every: 19},
			{Method: http.MethodPut, Mode: drxclient.FaultReset, Every: 29},
			{Mode: drxclient.FaultDelay, Delay: 15 * time.Millisecond, Every: 31},
		}
		cl := drxclient.New("http://"+ln.Addr().String(), drxclient.Options{
			Transport: &drxclient.FaultTransport{Rules: rules},
			Retry: drxclient.RetryPolicy{MaxAttempts: 8, BaseDelay: time.Millisecond,
				MaxDelay: 20 * time.Millisecond, AttemptTimeout: 2 * time.Second},
			Hedge:   drxclient.HedgePolicy{Enabled: true, WarmupDelay: 10 * time.Millisecond},
			Breaker: drxclient.BreakerPolicy{FailureThreshold: 40, OpenFor: 10 * time.Millisecond},
		})
		defer cl.CloseIdleConnections()

		base := runtime.NumGoroutine()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		final, err := chaosWorkload(ctx, cl, "arr", workers, iters, bandRows, cols, nil)
		if err != nil {
			return err
		}
		if err := verifyEndState(ctx, cl, f, "arr", final, bandRows, cols); err != nil {
			return err
		}

		st := cl.Stats()
		t.Logf("fault chaos: %+v", st)
		if st.Retries == 0 {
			return fmt.Errorf("fault schedule injected nothing (stats %+v)", st)
		}
		var fired int64
		for _, r := range rules {
			fired += r.Fired()
		}
		if fired == 0 {
			return fmt.Errorf("no fault rule fired")
		}
		if err := assertAdmissionIdle(srv); err != nil {
			return err
		}
		cl.CloseIdleConnections()
		return waitGoroutines(base, 4, 5*time.Second, cl.CloseIdleConnections)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestChaosKillRestartMidWorkload hard-kills the HTTP server (open
// connections aborted, listener closed) twice while the workload runs,
// restarting it on the same address over the same arrays each time. The
// retrying clients must ride through both outages: every worker
// finishes, read-your-write holds, the end state is byte-identical
// through the server and directly, and neither goroutines nor admission
// budget leak. The array runs a tiered cache with a memory budget well
// under the working set, so the outages also land mid-demotion; after
// the file closes, its spill file must be gone — kill/restart cannot
// leak local temp state.
func TestChaosKillRestartMidWorkload(t *testing.T) {
	const (
		workers  = 6
		iters    = 8
		bandRows = 8
		cols     = 48
		kills    = 2
	)
	spillDir := t.TempDir()
	spillPath := filepath.Join(spillDir, "chaos.spill")
	err := cluster.Run(1, func(c *cluster.Comm) error {
		f, err := drxmp.Create(c, "chaos-kill", drxmp.Options{
			DType: drxmp.Float64, ChunkShape: []int{16, 16}, Bounds: []int{workers * bandRows, cols},
			Tuning: drxmp.Tuning{CacheBytes: 4 << 10, SpillBytes: 64 << 10, SpillPath: spillPath},
		})
		if err != nil {
			return err
		}
		defer f.Close()
		if _, err := os.Stat(spillPath); err != nil {
			return fmt.Errorf("spill file not created at open: %w", err)
		}

		newServer := func() *serve.Server {
			srv := serve.New(serve.Config{
				CoalesceWindow:      200 * time.Microsecond,
				MaxInFlightRequests: 32,
				MaxQueuedRequests:   128,
				RequestTimeout:      10 * time.Second,
			})
			if err := srv.Register("arr", f); err != nil {
				panic(err) // fresh server over an open file cannot collide
			}
			return srv
		}

		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		addr := ln.Addr().String()
		srv := newServer()
		httpSrv := &http.Server{Handler: srv.Handler()}
		go httpSrv.Serve(ln)

		cl := drxclient.New("http://"+addr, drxclient.Options{
			Retry: drxclient.RetryPolicy{MaxAttempts: 10, BaseDelay: 2 * time.Millisecond,
				MaxDelay: 50 * time.Millisecond, AttemptTimeout: 2 * time.Second},
			Hedge:   drxclient.HedgePolicy{Enabled: true, WarmupDelay: 10 * time.Millisecond},
			Breaker: drxclient.BreakerPolicy{FailureThreshold: 100, OpenFor: 10 * time.Millisecond},
		})
		defer cl.CloseIdleConnections()

		base := runtime.NumGoroutine()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()

		// The kills fire at fixed points of the workload: kill k once op
		// killAt[k] (counting from 1, over all workers) is about to start.
		// That op, and every later one, waits until the kill has fired, so
		// both land mid-workload however the goroutines are scheduled. The
		// killer hard-kills the server, leaves it dead briefly, then
		// rebinds the same address with a fresh serving tier over the same
		// file. If the workload ends before a kill fires, the killer says
		// which at once.
		killAt := [kills]int64{12, 24}
		var reached, fired [kills]chan struct{}
		for k := range kills {
			reached[k], fired[k] = make(chan struct{}), make(chan struct{})
		}
		var started atomic.Int64
		workDone, killerStopped := make(chan struct{}), make(chan struct{})
		killerDone := make(chan error, 1)
		go func() {
			defer close(killerStopped)
			for k := range kills {
				select {
				case <-reached[k]:
				case <-workDone:
					killerDone <- fmt.Errorf("kill %d never fired: the workload ended after %d of %d ops", k+1, started.Load(), workers*iters)
					return
				}
				httpSrv.Close() // hard kill: aborts in-flight connections too
				close(fired[k])
				time.Sleep(25 * time.Millisecond)
				var nln net.Listener
				deadline := time.Now().Add(5 * time.Second)
				for {
					nln, err = net.Listen("tcp", addr)
					if err == nil {
						break
					}
					if time.Now().After(deadline) {
						killerDone <- fmt.Errorf("kill %d: rebind %s: %w", k+1, addr, err)
						return
					}
					time.Sleep(5 * time.Millisecond)
				}
				srv = newServer()
				httpSrv = &http.Server{Handler: srv.Handler()}
				go httpSrv.Serve(nln)
			}
			killerDone <- nil
		}()
		gate := func() error {
			n := started.Add(1)
			for k := range kills {
				if n == killAt[k] {
					close(reached[k])
				}
				if n < killAt[k] {
					continue
				}
				select {
				case <-fired[k]:
				case <-killerStopped:
					select {
					case <-fired[k]:
					default:
						return fmt.Errorf("the killer stopped before kill %d", k+1)
					}
				}
			}
			return nil
		}

		final, werr := chaosWorkload(ctx, cl, "arr", workers, iters, bandRows, cols, gate)
		close(workDone)
		if err := errors.Join(werr, <-killerDone); err != nil {
			return err
		}
		if err := verifyEndState(ctx, cl, f, "arr", final, bandRows, cols); err != nil {
			return err
		}

		st := cl.Stats()
		t.Logf("kill/restart chaos: %+v", st)
		if st.Retries == 0 {
			return fmt.Errorf("two hard kills caused zero retries — outage never hit the workload (stats %+v)", st)
		}
		if err := assertAdmissionIdle(srv); err != nil {
			return err
		}
		if cs := f.CacheStats(); cs.SpillDemoted == 0 {
			return fmt.Errorf("workload never exercised the spill tier: %+v", cs)
		}
		httpSrv.Close()
		cl.CloseIdleConnections()
		return waitGoroutines(base, 4, 5*time.Second, cl.CloseIdleConnections)
	})
	if err != nil {
		t.Fatal(err)
	}
	// The file is closed: the spill tier must have removed its slab
	// file — two hard kills and a concurrent workload leak no local
	// temp state.
	if _, err := os.Stat(spillPath); !os.IsNotExist(err) {
		t.Fatalf("spill file survived close: stat err = %v", err)
	}
	ents, err := os.ReadDir(spillDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("spill dir not empty after close: %d entries (%v)", len(ents), ents)
	}
}

// TestChaosDrainingServer pins the rolling-restart handshake: a
// draining server keeps answering data requests but reports not-ready,
// so clients route around it before the listener goes away.
func TestChaosDrainingServer(t *testing.T) {
	err := cluster.Run(1, func(c *cluster.Comm) error {
		f, err := drxmp.Create(c, "chaos-drain", drxmp.Options{
			DType: drxmp.Float64, ChunkShape: []int{8, 8}, Bounds: []int{16, 16},
		})
		if err != nil {
			return err
		}
		defer f.Close()
		srv := serve.New(serve.Config{})
		if err := srv.Register("arr", f); err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		httpSrv := &http.Server{Handler: srv.Handler()}
		go httpSrv.Serve(ln)
		defer httpSrv.Close()

		cl := drxclient.New("http://"+ln.Addr().String(), drxclient.Options{})
		defer cl.CloseIdleConnections()
		ctx := context.Background()
		if !cl.Ready(ctx) {
			return fmt.Errorf("fresh server not ready")
		}
		srv.SetDraining(true)
		if cl.Ready(ctx) {
			return fmt.Errorf("draining server still reports ready")
		}
		// Draining sheds new arrivals at the LB, not in-flight data: the
		// section path still answers.
		if _, err := cl.ReadSection(ctx, "arr", []int{0, 0}, []int{8, 8}); err != nil {
			return fmt.Errorf("read against draining server: %w", err)
		}
		srv.SetDraining(false)
		if !cl.Ready(ctx) {
			return fmt.Errorf("un-drained server not ready again")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
