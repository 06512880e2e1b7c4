package drxmp_test

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"drxmp"
	"drxmp/internal/cluster"
	"drxmp/internal/pfs"
	"drxmp/internal/serve"
)

// Differential suite for the serving tier: sections fetched or stored
// through the HTTP front end must be byte-identical to direct drxmp
// access, and a burst of overlapping cold readers must reach the
// backing store measurably fewer times than the client count
// (single-flight + coalescing).

// serveCase is one array shape under test.
type serveCase struct {
	name   string
	chunk  []int
	bounds []int
}

func serveCases() []serveCase {
	return []serveCase{
		{name: "2d", chunk: []int{16, 8}, bounds: []int{48, 40}},
		{name: "3d", chunk: []int{8, 6, 10}, bounds: []int{24, 18, 20}},
	}
}

// serveBoxes is a coverage set of request boxes for the given bounds:
// full array, chunk-aligned, chunk-straddling with odd offsets, single
// inner row, and a 1-element corner.
func serveBoxes(bounds []int) []drxmp.Box {
	k := len(bounds)
	zero := make([]int, k)
	full := drxmp.NewBox(zero, bounds)
	mk := func(f func(i int) (int, int)) drxmp.Box {
		lo := make([]int, k)
		hi := make([]int, k)
		for i := range bounds {
			lo[i], hi[i] = f(i)
		}
		return drxmp.NewBox(lo, hi)
	}
	return []drxmp.Box{
		full,
		mk(func(i int) (int, int) { return 0, bounds[i] / 2 }),
		mk(func(i int) (int, int) { return 3, bounds[i] - 1 }),
		mk(func(i int) (int, int) { return bounds[i]/2 - 1, bounds[i]/2 + 1 }),
		mk(func(i int) (int, int) {
			if i == k-1 {
				return 0, bounds[i]
			}
			return 5, 6
		}),
		mk(func(i int) (int, int) { return bounds[i] - 1, bounds[i] }),
	}
}

func serveURL(base, name string, box drxmp.Box, order string) string {
	lo, hi := "", ""
	for i := range box.Lo {
		if i > 0 {
			lo += ","
			hi += ","
		}
		lo += fmt.Sprint(box.Lo[i])
		hi += fmt.Sprint(box.Hi[i])
	}
	u := fmt.Sprintf("%s/v1/arrays/%s/section?lo=%s&hi=%s", base, name, lo, hi)
	if order != "" {
		u += "&order=" + order
	}
	return u
}

func serveGet(url string) ([]byte, *http.Response, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, resp, err
	}
	if resp.StatusCode != http.StatusOK {
		return body, resp, fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return body, resp, nil
}

func servePut(url string, payload []byte) error {
	req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(payload))
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("PUT %s: status %d: %s", url, resp.StatusCode, body)
	}
	return nil
}

// serveCreate creates a seeded array on its own store.
func serveCreate(c *cluster.Comm, name string, sc serveCase, tuning drxmp.Tuning) (*drxmp.File, error) {
	f, err := drxmp.Create(c, name, drxmp.Options{
		DType: drxmp.Float64, ChunkShape: sc.chunk, Bounds: sc.bounds,
		FS:     pfs.Options{Servers: 4, StripeSize: 1 << 10, Scheduler: pfs.Elevator},
		Tuning: tuning,
	})
	if err != nil {
		return nil, err
	}
	full := drxmp.NewBox(make([]int, len(sc.bounds)), sc.bounds)
	vals := make([]float64, full.Volume())
	for i := range vals {
		vals[i] = float64(i)*0.5 - 3
	}
	if err := f.WriteSectionFloat64s(full, vals, drxmp.RowMajor); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// TestServeDifferentialSections pins that server-mediated reads and
// writes are byte-identical to direct access across 2D and 3D arrays,
// both element orders, and chunk-straddling boxes.
func TestServeDifferentialSections(t *testing.T) {
	for _, sc := range serveCases() {
		t.Run(sc.name, func(t *testing.T) {
			err := cluster.Run(1, func(c *cluster.Comm) error {
				f, err := serveCreate(c, "diff-"+sc.name, sc, drxmp.Tuning{})
				if err != nil {
					return err
				}
				defer f.Close()
				// ref receives the same writes directly; it is the
				// served array's shadow.
				ref, err := serveCreate(c, "ref-"+sc.name, sc, drxmp.Tuning{})
				if err != nil {
					return err
				}
				defer ref.Close()

				srv := serve.New(serve.Config{CoalesceWindow: time.Millisecond})
				if err := srv.Register("arr", f); err != nil {
					return err
				}
				ts := httptest.NewServer(srv.Handler())
				defer ts.Close()

				es := int64(8)
				for bi, box := range serveBoxes(sc.bounds) {
					for _, ord := range []struct {
						q string
						o drxmp.Order
					}{{"", drxmp.RowMajor}, {"F", drxmp.ColMajor}} {
						want := make([]byte, box.Volume()*es)
						if err := f.ReadSection(box, want, ord.o); err != nil {
							return err
						}
						got, _, err := serveGet(serveURL(ts.URL, "arr", box, ord.q))
						if err != nil {
							return err
						}
						if !bytes.Equal(got, want) {
							return fmt.Errorf("box %d %v order %q: served read differs from direct", bi, box, ord.q)
						}
					}
				}

				// Writes: push distinct payloads through the server,
				// mirror them directly into ref, then require the full
				// arrays byte-identical via direct AND served reads.
				for bi, box := range serveBoxes(sc.bounds) {
					payload := make([]byte, box.Volume()*es)
					for i := range payload {
						payload[i] = byte(i*7 + bi*131)
					}
					ord := drxmp.RowMajor
					q := ""
					if bi%2 == 1 {
						ord = drxmp.ColMajor
						q = "F"
					}
					if err := servePut(serveURL(ts.URL, "arr", box, q), payload); err != nil {
						return err
					}
					if err := ref.WriteSection(box, payload, ord); err != nil {
						return err
					}
				}
				full := drxmp.NewBox(make([]int, len(sc.bounds)), sc.bounds)
				want := make([]byte, full.Volume()*es)
				if err := ref.ReadSection(full, want, drxmp.RowMajor); err != nil {
					return err
				}
				direct := make([]byte, full.Volume()*es)
				if err := f.ReadSection(full, direct, drxmp.RowMajor); err != nil {
					return err
				}
				if !bytes.Equal(direct, want) {
					return fmt.Errorf("served writes diverge from direct writes (direct read)")
				}
				served, _, err := serveGet(serveURL(ts.URL, "arr", full, ""))
				if err != nil {
					return err
				}
				if !bytes.Equal(served, want) {
					return fmt.Errorf("served writes diverge from direct writes (served read)")
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// readGate is a pfs.Injector that injects no failure: it parks the
// store's first read request until open is closed (parked closes once
// it is held) — a cold fetch that stays in flight for exactly as long
// as the test needs, whatever the machine's speed.
type readGate struct {
	once         sync.Once
	parked, open chan struct{}
}

func (g *readGate) Fail(server int, write bool, off, n int64) error {
	if !write {
		g.once.Do(func() { close(g.parked); <-g.open })
	}
	return nil
}

// TestServeConcurrentColdClients is the acceptance e2e: 32 concurrent
// clients issue overlapping cold section reads while the first backing
// fetch is still in flight; every response must be byte-identical to
// direct access, and the whole burst must cost exactly two backing
// section reads — the fetch that found the file idle and ONE merged
// read for everything that queued behind it. The coalescing and
// single-flight counters prove where the other 30 went.
func TestServeConcurrentColdClients(t *testing.T) {
	const clients = 32
	sc := serveCase{name: "cold", chunk: []int{16, 16}, bounds: []int{96, 96}}
	err := cluster.Run(1, func(c *cluster.Comm) error {
		// Two identical stores: one served, one as the direct baseline
		// (both caches off, so every read is cold at the store).
		f, err := serveCreate(c, "cold-served", sc, drxmp.Tuning{})
		if err != nil {
			return err
		}
		defer f.Close()
		base, err := serveCreate(c, "cold-direct", sc, drxmp.Tuning{})
		if err != nil {
			return err
		}
		defer base.Close()

		srv := serve.New(serve.Config{
			CoalesceWindow:      30 * time.Second, // a cap the held fetch never reaches
			MaxInFlightRequests: clients,          // bound present, never the bottleneck here
		})
		if err := srv.Register("cold", f); err != nil {
			return err
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()

		// Overlapping request pattern: 8 distinct boxes sliding along a
		// diagonal (several share a chunk-aligned cover -> single-flight;
		// distinct covers overlap -> coalescing), 4 clients per box.
		boxOf := func(i int) drxmp.Box {
			s := 4 * (i % 8)
			return drxmp.NewBox([]int{s, 8}, []int{s + 40, 72})
		}

		f.FS().ResetStats()
		base.FS().ResetStats()
		gate := &readGate{parked: make(chan struct{}), open: make(chan struct{})}
		f.FS().SetInjector(gate)

		start := make(chan struct{})
		errs := make([]error, clients)
		var wg sync.WaitGroup
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				got, _, err := serveGet(serveURL(ts.URL, "cold", boxOf(i), ""))
				if err != nil {
					errs[i] = err
					return
				}
				want := make([]byte, boxOf(i).Volume()*8)
				if err := base.ReadSection(boxOf(i), want, drxmp.RowMajor); err != nil {
					errs[i] = err
					return
				}
				if !bytes.Equal(got, want) {
					errs[i] = fmt.Errorf("client %d: served bytes differ from direct", i)
				}
			}(i)
		}
		close(start)
		// Hold the first fetch until every other client is parked behind
		// it: on its box's single-flight entry, or in the coalescer's queue.
		<-gate.parked
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			a := srv.Stats().Arrays[0]
			if a.SingleFlight.Hits+a.Coalesce.Batched == clients-1 {
				break
			}
			if time.Now().After(deadline) {
				close(gate.open)
				return fmt.Errorf("burst never piled up behind the held fetch: %+v %+v", a.SingleFlight, a.Coalesce)
			}
		}
		close(gate.open)
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}

		st := srv.Stats()
		a := st.Arrays[0]
		var servedReads, directReads int64
		for _, ps := range f.FS().Stats().PerServer {
			servedReads += ps.Reads
		}
		for _, ps := range base.FS().Stats().PerServer {
			directReads += ps.Reads
		}
		t.Logf("serving tier: %d clients -> %d backing section reads (%d single-flight hits, %d coalesced); pfs reads served=%d direct=%d",
			clients, a.Coalesce.BackingReads, a.SingleFlight.Hits, a.Coalesce.Merged, servedReads, directReads)
		// The 8 boxes round out to 4 distinct chunk covers: 4 fills and 28
		// single-flight hits; the 3 fills that queued overlap into one
		// cluster (2 merged).
		if a.Coalesce.BackingReads != 2 || a.SingleFlight.Hits != 28 || a.Coalesce.Merged != 2 {
			return fmt.Errorf("counters for the client burst: backing=%d hits=%d merged=%d, want 2 / 28 / 2",
				a.Coalesce.BackingReads, a.SingleFlight.Hits, a.Coalesce.Merged)
		}
		if servedReads >= directReads {
			return fmt.Errorf("store saw %d reads through the server vs %d direct: serving tier amplified I/O", servedReads, directReads)
		}
		// Every request went through admission; none should still be
		// holding budget.
		if a.Admission.Admitted != clients {
			return fmt.Errorf("admission accounting off: %+v", a.Admission)
		}
		if err := assertAdmissionIdle(srv); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestServeTenantAttribution pins that concurrent tenants see their
// own request counters.
func TestServeTenantAttribution(t *testing.T) {
	sc := serveCase{name: "tenants", chunk: []int{8, 8}, bounds: []int{32, 32}}
	err := cluster.Run(1, func(c *cluster.Comm) error {
		f, err := serveCreate(c, "tenants", sc, drxmp.Tuning{})
		if err != nil {
			return err
		}
		defer f.Close()
		srv := serve.New(serve.Config{})
		if err := srv.Register("arr", f); err != nil {
			return err
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		box := drxmp.NewBox([]int{0, 0}, []int{8, 8})
		for _, tenant := range []string{"alice", "bob", "bob"} {
			req, _ := http.NewRequest(http.MethodGet, serveURL(ts.URL, "arr", box, ""), nil)
			req.Header.Set("X-Drx-Tenant", tenant)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return err
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		tn := srv.Stats().Tenants
		if tn["alice"].Reads != 1 || tn["bob"].Reads != 2 {
			return fmt.Errorf("tenant attribution off: alice=%+v bob=%+v", tn["alice"], tn["bob"])
		}
		if tn["alice"].BytesOut != 8*8*8 {
			return fmt.Errorf("alice bytes_out = %d", tn["alice"].BytesOut)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
