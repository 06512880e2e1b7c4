package serve

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"drxmp"
	"drxmp/internal/cluster"
	"drxmp/internal/drxclient"
	"drxmp/internal/mpiio"
	"drxmp/internal/pfs"
)

// TestServeSectionContentLength: a section GET is sized, not chunked —
// Content-Length is the box's bytes in either order — so a client can
// read it into one buffer and detect a body that ends short.
func TestServeSectionContentLength(t *testing.T) {
	withServer(t, Config{}, drxmp.Tuning{}, func(f *drxmp.File, s *Server, url string) {
		const want = (19 - 3) * (29 - 5) * 8
		for _, order := range []string{"C", "F"} {
			resp, body := get(t, url+"/v1/arrays/unit/section?lo=3,5&hi=19,29&order="+order)
			if resp.StatusCode != 200 || len(body) != want {
				t.Fatalf("order=%s: status %d, %d body bytes, want %d", order, resp.StatusCode, len(body), want)
			}
			if resp.ContentLength != want || len(resp.TransferEncoding) != 0 {
				t.Fatalf("order=%s: Content-Length %d, Transfer-Encoding %v; want %d, unchunked",
					order, resp.ContentLength, resp.TransferEncoding, want)
			}
		}
	})
}

// TestServeTruncatedSectionIsRetryable: with the body sized, drxclient
// sees a transport that cuts it short as a retryable "truncated
// response" naming both lengths — and rides through it given a retry.
func TestServeTruncatedSectionIsRetryable(t *testing.T) {
	withServer(t, Config{}, drxmp.Tuning{}, func(f *drxmp.File, s *Server, url string) {
		lo, hi := []int{3, 5}, []int{19, 29}
		want := make([]byte, 16*24*8)
		if err := f.ReadSection(drxmp.NewBox(lo, hi), want, drxmp.RowMajor); err != nil {
			t.Fatal(err)
		}
		client := func(attempts int) *drxclient.Client {
			return drxclient.New(url, drxclient.Options{
				Transport: &drxclient.FaultTransport{Rules: []*drxclient.FaultRule{
					{Method: http.MethodGet, Mode: drxclient.FaultTruncate, TruncateTo: 11, Count: 1},
				}},
				Retry: drxclient.RetryPolicy{MaxAttempts: attempts, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond},
			})
		}
		cl := client(1)
		defer cl.CloseIdleConnections()
		_, err := cl.ReadSection(context.Background(), "unit", lo, hi)
		if wantMsg := fmt.Sprintf("truncated response (11 of %d bytes)", len(want)); err == nil || !strings.Contains(err.Error(), wantMsg) {
			t.Fatalf("one attempt through a cut body: err = %v, want %q", err, wantMsg)
		}
		cl = client(2)
		defer cl.CloseIdleConnections()
		got, err := cl.ReadSection(context.Background(), "unit", lo, hi)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("two attempts through a cut body: err = %v, identical = %v", err, bytes.Equal(got, want))
		}
		if st := cl.Stats(); st.Retries != 1 {
			t.Fatalf("retries = %d, want 1 (truncation is retryable)", st.Retries)
		}
	})
}

// put issues a section PUT; sized=false hides the length from the
// transport, so the body goes out chunked.
func put(t *testing.T, url string, body []byte, sized bool) int {
	t.Helper()
	var rd io.Reader = bytes.NewReader(body)
	if !sized {
		rd = io.MultiReader(rd)
	}
	req, err := http.NewRequest(http.MethodPut, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// TestServePutBodyLength: a PUT body one byte short or one byte long is
// a 400, whether its length is announced (rejected on Content-Length,
// before a byte is read) or chunked (measured by the overrun probe);
// the exact length lands.
func TestServePutBodyLength(t *testing.T) {
	withServer(t, Config{}, drxmp.Tuning{}, func(f *drxmp.File, s *Server, url string) {
		const n = 4 * 4 * 8
		section := url + "/v1/arrays/unit/section?lo=0,0&hi=4,4"
		payload := make([]byte, n+1)
		for i := range payload {
			payload[i] = byte(i*7 + 1)
		}
		for _, sized := range []bool{true, false} {
			for _, tc := range []struct{ len, want int }{
				{n - 1, http.StatusBadRequest},
				{n + 1, http.StatusBadRequest},
				{n, http.StatusNoContent},
			} {
				if got := put(t, section, payload[:tc.len], sized); got != tc.want {
					t.Fatalf("sized=%v PUT of %d bytes for a %d-byte box: status %d, want %d", sized, tc.len, n, got, tc.want)
				}
			}
		}
		got := make([]byte, n)
		if err := f.ReadSection(drxmp.NewBox([]int{0, 0}, []int{4, 4}), got, drxmp.RowMajor); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload[:n]) {
			t.Fatal("exact-length PUT did not land")
		}
		waitIdle(t, s.array("unit").adm)
	})
}

// gatedBody is a PUT body that counts the bytes read from it and, when
// gate is non-nil, parks its first Read until the gate closes.
type gatedBody struct {
	data []byte
	gate <-chan struct{}
	read *atomic.Int64
}

func (b *gatedBody) Read(p []byte) (int, error) {
	if b.gate != nil {
		<-b.gate
	}
	if len(b.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p, b.data)
	b.data = b.data[n:]
	b.read.Add(int64(n))
	return n, nil
}

func (b *gatedBody) Close() error { return nil }

// TestServePutAdmittedBeforeBuffered (bugfix regression): handleWrite
// used to buffer the whole body BEFORE admission, so MaxInFlightBytes
// did not bound write buffers — K PUTs held K bodies while one was
// admitted. With a budget of one body, K concurrent PUTs must queue
// with their bodies unread, never show more than one body in flight,
// and all succeed.
func TestServePutAdmittedBeforeBuffered(t *testing.T) {
	const K = 6
	const n = 8 * 8 * 8
	withServer(t, Config{MaxInFlightBytes: n}, drxmp.Tuning{}, func(f *drxmp.File, s *Server, url string) {
		h := s.Handler()
		adm := s.array("unit").adm
		gate := make(chan struct{})
		var firstRead, queuedRead atomic.Int64
		codes := make([]int, K)
		var wg sync.WaitGroup
		putOne := func(i int, body *gatedBody) {
			defer wg.Done()
			body.data = bytes.Repeat([]byte{byte(i + 1)}, n)
			// Disjoint chunks per request; the handler is driven directly
			// so the test sees exactly when the SERVER reads a body.
			req := httptest.NewRequest(http.MethodPut, fmt.Sprintf("/v1/arrays/unit/section?lo=%d,%d&hi=%d,%d",
				(i%4)*8, (i/4)*8, (i%4)*8+8, (i/4)*8+8), body)
			req.ContentLength = n
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			codes[i] = rec.Code
		}
		// The first PUT is admitted and parks sending its body.
		wg.Add(1)
		go putOne(0, &gatedBody{gate: gate, read: &firstRead})
		waitFor(t, "the first PUT to be admitted", func() bool { return adm.snapshot().InFlight == 1 })
		for i := 1; i < K; i++ {
			wg.Add(1)
			go putOne(i, &gatedBody{read: &queuedRead})
		}
		waitFor(t, "the other PUTs to queue", func() bool { return adm.snapshot().Queued == K-1 })
		if st := adm.snapshot(); st.InFlight != 1 || st.InFlightBytes != n {
			t.Fatalf("admission with one PUT mid-body: %+v, want one body in flight", st)
		}
		if got := queuedRead.Load(); got != 0 {
			t.Fatalf("%d body bytes buffered for PUTs still waiting on admission, want 0", got)
		}
		// Let it through and watch the budget while the rest drain.
		stop := make(chan struct{})
		var over atomic.Int64
		go func() {
			for {
				select {
				case <-stop:
					return
				default:
					if st := adm.snapshot(); st.InFlightBytes > n {
						over.Store(st.InFlightBytes)
					}
					runtime.Gosched()
				}
			}
		}()
		close(gate)
		wg.Wait()
		close(stop)
		if b := over.Load(); b != 0 {
			t.Fatalf("%d bytes in flight under a %d-byte budget", b, n)
		}
		for i, c := range codes {
			if c != http.StatusNoContent {
				t.Fatalf("PUT %d: status %d", i, c)
			}
		}
		waitIdle(t, adm)
		st := adm.snapshot()
		if st.PeakInFlight != 1 || st.Admitted != K || st.InFlight != 0 || st.InFlightBytes != 0 {
			t.Fatalf("admission after %d PUTs: %+v, want peak 1, idle", K, st)
		}
		if got := firstRead.Load() + queuedRead.Load(); got != K*n {
			t.Fatalf("server read %d body bytes, want %d", got, K*n)
		}
	})
}

// TestServePutSlowSenderTimesOut: a sender that stalls mid-body holds
// an admission slot (admission now precedes the body), so the request
// deadline must bound it: the PUT answers 503 at RequestTimeout and the
// slot comes back.
func TestServePutSlowSenderTimesOut(t *testing.T) {
	cfg := Config{MaxInFlightRequests: 1, RequestTimeout: 40 * time.Millisecond}
	withServer(t, cfg, drxmp.Tuning{}, func(f *drxmp.File, s *Server, url string) {
		conn, err := net.Dial("tcp", strings.TrimPrefix(url, "http://"))
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		const n = 8 * 8 * 8
		fmt.Fprintf(conn, "PUT /v1/arrays/unit/section?lo=0,0&hi=8,8 HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\nhalf", n)
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatalf("no response to a stalled PUT: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("stalled PUT: status %d, want 503", resp.StatusCode)
		}
		waitIdle(t, s.array("unit").adm)
		if resp, _ := get(t, url+"/v1/arrays/unit/section?lo=0,0&hi=8,8"); resp.StatusCode != 200 {
			t.Fatalf("read after the stalled PUT: status %d", resp.StatusCode)
		}
	})
}

// --- allocation pins ---

// allocBytesPerRun is testing.AllocsPerRun reporting heap BYTES per run
// as well: a count cannot tell a payload-sized buffer from a header
// string, and it is the payload-sized ones these tests pin.
func allocBytesPerRun(runs int, f func()) (bytesPerRun, allocsPerRun float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	allocsPerRun = testing.AllocsPerRun(runs, f) // one warm-up call + runs
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(runs+1), allocsPerRun
}

// discardResponse is a ResponseWriter that keeps nothing, so a handler
// measured through it shows only its own allocations.
type discardResponse struct {
	h    http.Header
	code int
	n    int
}

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) WriteHeader(code int)        { d.code = code }
func (d *discardResponse) Write(b []byte) (int, error) { d.n += len(b); return len(b), nil }

// benchBox is the 96x96 float64 section the allocation pins and the
// serving benchmarks move: unaligned on 16x16 chunks, so the handler
// fetches a 112x112 cover and slices the box out of it.
const (
	benchQuery   = "lo=8,8&hi=104,104"
	benchPayload = 96 * 96 * 8
)

// withBenchServer serves a 256x256 float64 array under drxserve's
// defaults (500 us window, 64 MiB cache, the admission bounds), cache
// warmed over the bench box.
func withBenchServer(tb testing.TB, fn func(s *Server, url string)) {
	tb.Helper()
	err := cluster.Run(1, func(c *cluster.Comm) error {
		f, err := drxmp.Create(c, "srv-bench", drxmp.Options{
			DType: drxmp.Float64, ChunkShape: []int{16, 16}, Bounds: []int{256, 256},
			FS:     pfs.Options{Servers: 4, StripeSize: 64 << 10},
			Tuning: drxmp.Tuning{CacheBytes: 64 << 20},
		})
		if err != nil {
			return err
		}
		defer f.Close()
		full := drxmp.NewBox([]int{0, 0}, []int{256, 256})
		vals := make([]float64, full.Volume())
		for i := range vals {
			vals[i] = float64(i) / 7
		}
		if err := f.WriteSectionFloat64s(full, vals, drxmp.RowMajor); err != nil {
			return err
		}
		s := New(Config{
			CoalesceWindow:      500 * time.Microsecond,
			MaxInFlightRequests: 64,
			MaxInFlightBytes:    256 << 20,
			MaxQueuedRequests:   256,
			RequestTimeout:      30 * time.Second,
		})
		if err := s.Register("bench", f); err != nil {
			return err
		}
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		if resp, _ := http.Get(ts.URL + "/v1/arrays/bench/section?" + benchQuery); resp != nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		fn(s, ts.URL)
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
}

// TestServeGetAllocations pins a section body to being sized once on
// each end of the wire. Handler: both payload-sized buffers a sliced GET
// touches — the chunk cover, shared with any waiter of the fill, and
// the slice — are pooled, so a warm GET allocates neither. Client: the
// body is read into one buffer of Content-Length bytes, not regrown by
// io.ReadAll (which cost 3.5 payloads).
func TestServeGetAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds buffers at random under the race detector")
	}
	withBenchServer(t, func(s *Server, url string) {
		h := s.Handler()
		w := &discardResponse{h: http.Header{}}
		bytesPerRun, allocs := allocBytesPerRun(50, func() {
			w.n = 0
			h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/arrays/bench/section?"+benchQuery, nil))
		})
		if w.code != 0 && w.code != 200 || w.n != benchPayload || w.h.Get("Content-Length") != strconv.Itoa(benchPayload) {
			t.Fatalf("handler: status %d, %d bytes, Content-Length %q", w.code, w.n, w.h.Get("Content-Length"))
		}
		t.Logf("handler: %.0f B/run for a %d B payload, %.0f allocs/run", bytesPerRun, benchPayload, allocs)
		// What is left is the run lists of a 49-chunk section, well under
		// one payload; either buffer unpooled would add at least one.
		if bytesPerRun > benchPayload {
			t.Fatalf("handler allocates %.0f B per GET of %d B: a payload-sized buffer is not pooled", bytesPerRun, benchPayload)
		}

		cl := drxclient.New(url, drxclient.Options{})
		defer cl.CloseIdleConnections()
		var got []byte
		var err error
		bytesPerRun, allocs = allocBytesPerRun(50, func() {
			got, err = cl.ReadSection(context.Background(), "bench", []int{8, 8}, []int{104, 104})
		})
		if err != nil || len(got) != benchPayload {
			t.Fatalf("client: %d bytes, err %v", len(got), err)
		}
		t.Logf("end to end: %.0f B/run, %.0f allocs/run", bytesPerRun, allocs)
		// In one process this run is client + handler: the client's one
		// body buffer on top of the handler's run lists. A second
		// body-sized buffer anywhere would put it past two payloads.
		if bytesPerRun > 2*benchPayload {
			t.Fatalf("a GET allocates %.0f B end to end: more than the client's one body buffer", bytesPerRun)
		}
	})
}

// TestServePoisonedPool: the fill's cover, the response slice and the
// PUT body all come out of the buffer pool with unspecified contents.
// Out of a poisoned pool every GET — aligned or sliced, either order,
// over written chunks and never-written ones (zeros), cached or not —
// must still equal a direct read, before and after a PUT.
func TestServePoisonedPool(t *testing.T) {
	poison := func() {
		held := make([]*mpiio.Buf, 8)
		for i := range held {
			held[i] = mpiio.GetBuf(32 * 32 * 8)
			for j := range held[i].B {
				held[i].B[j] = 0xA5
			}
		}
		for _, b := range held {
			b.Release()
		}
	}
	for _, tuning := range []drxmp.Tuning{{}, {CacheBytes: 1 << 20}} {
		err := cluster.Run(1, func(c *cluster.Comm) error {
			f, err := drxmp.Create(c, "srv-poison", drxmp.Options{
				DType: drxmp.Float64, ChunkShape: []int{8, 8}, Bounds: []int{32, 32},
				FS:     pfs.Options{Servers: 4, StripeSize: 512},
				Tuning: tuning,
			})
			if err != nil {
				return err
			}
			defer f.Close()
			// Only the top-left quadrant is ever written.
			quad := drxmp.NewBox([]int{0, 0}, []int{16, 16})
			vals := make([]float64, quad.Volume())
			for i := range vals {
				vals[i] = float64(i) + 0.25
			}
			if err := f.WriteSectionFloat64s(quad, vals, drxmp.RowMajor); err != nil {
				return err
			}
			s := New(Config{CoalesceWindow: 500 * time.Microsecond})
			if err := s.Register("unit", f); err != nil {
				return err
			}
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			check := func(pristine bool) error {
				for _, q := range []struct {
					lo, hi [2]int
					order  string
				}{
					{[2]int{0, 0}, [2]int{32, 32}, "C"},   // aligned: the cover is the body
					{[2]int{3, 5}, [2]int{29, 27}, "C"},   // sliced, straddles written and unwritten
					{[2]int{3, 5}, [2]int{29, 27}, "F"},   // transposed slice
					{[2]int{16, 16}, [2]int{32, 32}, "F"}, // never written: zeros
				} {
					box := drxmp.NewBox(q.lo[:], q.hi[:])
					order := drxmp.RowMajor
					if q.order == "F" {
						order = drxmp.ColMajor
					}
					want := make([]byte, box.Volume()*8)
					if err := f.ReadSection(box, want, order); err != nil {
						return err
					}
					if pristine && q.lo == [2]int{16, 16} && !bytes.Equal(want, make([]byte, len(want))) {
						return fmt.Errorf("direct read of never-written chunks is not zeros")
					}
					poison()
					_, got := get(t, fmt.Sprintf("%s/v1/arrays/unit/section?lo=%d,%d&hi=%d,%d&order=%s",
						ts.URL, q.lo[0], q.lo[1], q.hi[0], q.hi[1], q.order))
					if !bytes.Equal(got, want) {
						return fmt.Errorf("cache=%d: GET %v order=%s differs from a direct read out of a poisoned pool",
							tuning.CacheBytes, box, q.order)
					}
				}
				return nil
			}
			if err := check(true); err != nil {
				return err
			}
			poison()
			payload := bytes.Repeat([]byte{0x3c}, 10*12*8)
			if code := put(t, ts.URL+"/v1/arrays/unit/section?lo=10,12&hi=20,24", payload, true); code != http.StatusNoContent {
				return fmt.Errorf("PUT status %d", code)
			}
			return check(false)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestServeResponseCompletesAfterRelease: a sized body must not be
// complete on the client's side while its handler still holds the
// request's admission slot (a closed-loop client under a one-request
// budget would queue behind its own previous request) — with a chunked
// body the terminator only went out when the handler returned. The
// handler is wrapped so that it has released everything but has not yet
// returned to net/http: the body must still be short of its last byte.
func TestServeResponseCompletesAfterRelease(t *testing.T) {
	withServer(t, Config{MaxInFlightRequests: 1}, drxmp.Tuning{}, func(f *drxmp.File, s *Server, _ string) {
		h := s.Handler()
		served, finish := make(chan struct{}), make(chan struct{})
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h.ServeHTTP(w, r) // the slot is back when this returns
			close(served)
			<-finish
		}))
		defer ts.Close()
		body := make(chan int, 1)
		go func() {
			// 8 KiB: past net/http's buffers, so the body leaves in Write.
			_, b := get(t, ts.URL+"/v1/arrays/unit/section?lo=0,0&hi=32,32")
			body <- len(b)
		}()
		<-served
		st := s.array("unit").adm.snapshot()
		early := -1
		select {
		case early = <-body:
		case <-time.After(30 * time.Millisecond):
		}
		close(finish) // before any Fatal: ts.Close waits for the wrapper
		if st.InFlight != 0 {
			t.Fatalf("handler returned holding admission: %+v", st)
		}
		if early >= 0 {
			t.Fatalf("client had all %d body bytes before the handler returned", early)
		}
		if n := <-body; n != 32*32*8 {
			t.Fatalf("body of %d bytes", n)
		}
	})
}
