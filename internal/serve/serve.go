// Package serve is the array-as-a-service front end: an HTTP serving
// tier that exposes DistArray/drxmp section reads and writes to many
// concurrent remote clients over one shared store.
//
// Three mechanisms make it a system rather than a shim over
// File.ReadSection:
//
//   - Per-file admission control: a bounded in-flight request/byte
//     budget with queueing (admission.go), so a client burst degrades
//     into an orderly queue instead of unbounded section buffers. A
//     PUT is admitted before its body is buffered, so the byte budget
//     bounds write buffers as well as read ones.
//   - Cross-client request coalescing: section reads that arrive
//     while a backing fetch of the array is in flight queue behind it,
//     and the overlapping ones among them merge into one backing
//     section read whose result is sliced back per client
//     (coalesce.go). A read that finds the array idle goes straight to
//     the file: batching waits on work, never on a clock, and
//     CoalesceWindow only caps how long a queued read may be held.
//   - Single-flight cold fills: a per-(aligned box, write generation)
//     table of in-progress fetches, so K waiters on a cold range
//     block on the first fetcher instead of issuing K server sweeps
//     (singleflight.go). Warmth beyond the in-flight window comes
//     from the unified extent cache (drxmp Tuning.CacheBytes).
//
// A section body is sized once on each end of the wire: GETs carry
// Content-Length (the client reads into one buffer of that length and
// can tell a truncated body from a whole one), and the fill's chunk
// cover, the per-request slice and the PUT body all live in mpiio's
// buffer pool for exactly as long as a request uses them.
//
// Every request is attributed to a tenant (X-Drx-Tenant header or
// ?tenant=) in per-tenant counters layered on top of pfs.ServerStats.
//
// API (binary bodies are raw element bytes, dense over the box in the
// requested order, little-endian as stored):
//
//	GET  /v1/arrays                            -> JSON list of arrays
//	GET  /v1/arrays/{name}                     -> JSON array metadata
//	GET  /v1/arrays/{name}/section?lo=..&hi=.. -> binary section
//	PUT  /v1/arrays/{name}/section?lo=..&hi=.. <- binary section
//	GET  /v1/arrays/{name}/stats               -> JSON serving stats
//	GET  /v1/stats                             -> JSON all arrays + tenants
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"drxmp"
	"drxmp/internal/grid"
	"drxmp/internal/mpiio"
)

// Config tunes the serving mechanisms. The zero value serves
// correctly: no admission bound, no coalescing.
type Config struct {
	// CoalesceWindow caps how long a read queued behind an in-flight
	// backing fetch is held for merging: the queue leaves when that
	// fetch settles or after this long, whichever is first. A read that
	// finds no fetch in flight never waits. 0 disables coalescing
	// (reads still single-flight).
	CoalesceWindow time.Duration
	// MaxInFlightRequests bounds admitted requests per array
	// (0 = unbounded).
	MaxInFlightRequests int
	// MaxInFlightBytes bounds admitted payload bytes per array
	// (0 = unbounded).
	MaxInFlightBytes int64
	// MaxQueuedRequests bounds the admission waiting queue per array:
	// past it, requests are shed immediately with 503 + Retry-After
	// instead of queueing without bound (0 = unbounded queue).
	MaxQueuedRequests int
	// RequestTimeout caps each request's handling time, admission
	// queueing included. A request that exceeds it gets 503 +
	// Retry-After and releases whatever it held (0 = no cap).
	RequestTimeout time.Duration
}

// array is one registered file plus its serving machinery.
type array struct {
	name string
	f    *drxmp.File
	adm  *admission
	fl   *flightTable
	co   *coalescer
	// gen is bumped by every completed write, and is part of the
	// single-flight key: a read arriving after a write never joins a
	// fill that started before it, so read-your-writes holds for
	// sequential clients (concurrent conflicting access keeps MPI's
	// undefined ordering, as everywhere in the library).
	gen atomic.Int64
}

// Server serves registered arrays over HTTP.
type Server struct {
	cfg     Config
	mu      sync.RWMutex
	arrays  map[string]*array
	tenants *tenantTable

	// draining flips /readyz to 503 so load balancers and hedging
	// clients fail over before in-flight requests finish draining.
	draining atomic.Bool
	// panics counts handler panics settled by the recovery middleware.
	panics atomic.Int64
}

// New builds a server with no arrays registered.
func New(cfg Config) *Server {
	return &Server{cfg: cfg, arrays: map[string]*array{}, tenants: newTenantTable()}
}

// Register exposes f as /v1/arrays/{name}. The file stays owned by the
// caller (the server never closes it); its handle must remain valid
// for the server's lifetime.
func (s *Server) Register(name string, f *drxmp.File) error {
	if name == "" {
		return fmt.Errorf("serve: empty array name")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.arrays[name]; ok {
		return fmt.Errorf("serve: array %q already registered", name)
	}
	a := &array{
		name: name,
		f:    f,
		adm:  newAdmission(s.cfg.MaxInFlightRequests, s.cfg.MaxInFlightBytes, s.cfg.MaxQueuedRequests),
		fl:   newFlightTable(),
	}
	es := int64(f.DType().Size())
	a.co = newCoalescer(s.cfg.CoalesceWindow, es,
		func(b grid.Box) (*mpiio.Buf, error) {
			// Pooled: a successful ReadSection writes every byte of the box.
			buf := mpiio.GetBuf(b.Volume() * es)
			if err := f.ReadSection(b, buf.B, drxmp.RowMajor); err != nil {
				buf.Release()
				return nil, err
			}
			return buf, nil
		})
	s.arrays[name] = a
	return nil
}

// Array returns the registered file (tests and stats).
func (s *Server) Array(name string) (*drxmp.File, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	a, ok := s.arrays[name]
	if !ok {
		return nil, false
	}
	return a.f, true
}

func (s *Server) array(name string) *array {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.arrays[name]
}

// Handler returns the HTTP handler serving the API, wrapped in the
// resilience middleware: panic recovery (a handler panic settles the
// request with 500 instead of killing the connection silently —
// composing with the single-flight/coalescer panic settling, which
// releases parked waiters before the panic reaches the middleware) and
// the per-request timeout.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/arrays", s.handleList)
	mux.HandleFunc("GET /v1/arrays/{name}", s.handleMeta)
	mux.HandleFunc("GET /v1/arrays/{name}/section", s.handleRead)
	mux.HandleFunc("PUT /v1/arrays/{name}/section", s.handleWrite)
	mux.HandleFunc("GET /v1/arrays/{name}/stats", s.handleArrayStats)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	return s.middleware(mux)
}

// SetDraining flips the readiness state: while draining, /readyz
// returns 503 so clients and balancers route new work elsewhere (the
// drxserve shutdown path sets it before the HTTP server drains).
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Draining reports the current readiness state.
func (s *Server) Draining() bool { return s.draining.Load() }

// statusWriter tracks whether a handler already committed a status, so
// the panic middleware only writes 500 for requests that never settled.
type statusWriter struct {
	http.ResponseWriter
	wrote bool
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.wrote = true
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	sw.wrote = true
	return sw.ResponseWriter.Write(b)
}

// Unwrap lets http.ResponseController reach the connection's deadlines.
func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// middleware wraps the mux with panic recovery and the per-request
// timeout. Admission, single-flight waits and coalescer member waits
// all select on the request context, so an expired deadline (or a
// disconnected client) releases every slot the request held.
func (s *Server) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.cfg.RequestTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		sw := &statusWriter{ResponseWriter: w}
		defer func() {
			if rec := recover(); rec != nil {
				s.panics.Add(1)
				if !sw.wrote {
					httpError(sw, http.StatusInternalServerError, "internal error: %v", rec)
				}
			}
		}()
		next.ServeHTTP(sw, r)
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	s.mu.RLock()
	n := len(s.arrays)
	s.mu.RUnlock()
	writeJSON(w, map[string]any{"status": "ready", "arrays": n})
}

// unavailable settles a request the resilience path refused: shed by
// the queue bound, timed out while queued, or abandoned by its client.
// Retry-After tells well-behaved clients to back off before retrying.
func unavailable(w http.ResponseWriter, err error) {
	w.Header().Set("Retry-After", "1")
	httpError(w, http.StatusServiceUnavailable, "%v", err)
}

func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Drx-Tenant"); t != "" {
		return t
	}
	if t := r.URL.Query().Get("tenant"); t != "" {
		return t
	}
	return "anon"
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// arrayMeta is the metadata document of one array.
type arrayMeta struct {
	Name       string `json:"name"`
	DType      string `json:"dtype"`
	ElemSize   int    `json:"elem_size"`
	Rank       int    `json:"rank"`
	Bounds     []int  `json:"bounds"`
	ChunkShape []int  `json:"chunk_shape"`
	Order      string `json:"order"`
}

func metaOf(a *array) arrayMeta {
	order := "C"
	if a.f.Order() == drxmp.ColMajor {
		order = "F"
	}
	return arrayMeta{
		Name:       a.name,
		DType:      a.f.DType().String(),
		ElemSize:   a.f.DType().Size(),
		Rank:       a.f.Rank(),
		Bounds:     a.f.Bounds(),
		ChunkShape: a.f.ChunkShape(),
		Order:      order,
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	metas := make([]arrayMeta, 0, len(s.arrays))
	for _, a := range s.arrays {
		metas = append(metas, metaOf(a))
	}
	s.mu.RUnlock()
	writeJSON(w, metas)
}

func (s *Server) handleMeta(w http.ResponseWriter, r *http.Request) {
	a := s.array(r.PathValue("name"))
	if a == nil {
		httpError(w, http.StatusNotFound, "no such array %q", r.PathValue("name"))
		return
	}
	writeJSON(w, metaOf(a))
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Stats())
}

func (s *Server) handleArrayStats(w http.ResponseWriter, r *http.Request) {
	a := s.array(r.PathValue("name"))
	if a == nil {
		httpError(w, http.StatusNotFound, "no such array %q", r.PathValue("name"))
		return
	}
	writeJSON(w, s.arrayStats(a))
}

// parseOrder maps the order query ("C" row-major default, "F"
// column-major) to a grid order.
func parseOrder(r *http.Request) (grid.Order, error) {
	switch r.URL.Query().Get("order") {
	case "", "C":
		return drxmp.RowMajor, nil
	case "F":
		return drxmp.ColMajor, nil
	default:
		return drxmp.RowMajor, fmt.Errorf("order must be C or F")
	}
}

// requestBox parses and validates the lo/hi query of a section request.
func requestBox(r *http.Request, a *array) (grid.Box, error) {
	return parseBox(r.URL.Query().Get("lo"), r.URL.Query().Get("hi"), a.f.Rank(), a.f.Bounds())
}

func (s *Server) handleRead(w http.ResponseWriter, r *http.Request) {
	a := s.array(r.PathValue("name"))
	if a == nil {
		httpError(w, http.StatusNotFound, "no such array %q", r.PathValue("name"))
		return
	}
	tenant := tenantOf(r)
	box, err := requestBox(r, a)
	if err != nil {
		s.tenants.update(tenant, func(t *TenantStats) { t.Requests++; t.Errors++ })
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	order, err := parseOrder(r)
	if err != nil {
		s.tenants.update(tenant, func(t *TenantStats) { t.Requests++; t.Errors++ })
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	es := int64(a.f.DType().Size())
	n := box.Volume() * es

	// acquire is paired with an immediate deferred release so EVERY
	// exit — error return, panic in the fill (settled by the recovery
	// middleware), slow client — gives the budget back. The
	// single-flight table and coalescer carry the same obligation for
	// the requests they park (see singleflight.go / coalesce.go); a
	// stranded waiter would hold its admission slot forever. A waiter
	// whose client disconnects or whose deadline expires while QUEUED
	// leaves the queue with its slot never held (ctx-aware acquire).
	ctx := r.Context()
	waited, err := a.adm.acquire(ctx, n)
	if err != nil {
		s.tenants.update(tenant, func(t *TenantStats) { t.Requests++; t.Reads++; t.Errors++ })
		unavailable(w, err)
		return
	}
	defer a.adm.release(n)

	// The fill granularity is the chunk-aligned cover of the request:
	// chunk-equivalent requests share one single-flight key, and the
	// coalescer merges overlapping aligned covers from distinct keys.
	ab := alignBox(box, a.f.ChunkShape(), a.f.Bounds())
	key := strconv.FormatInt(a.gen.Load(), 10) + "|" + ab.String()
	var coalesced bool
	fl, shared, err := a.fl.do(ctx, key, func() (*mpiio.Buf, error) {
		b, merged, err := a.co.read(ctx, ab)
		coalesced = merged
		return b, err
	})
	// The fill's buffer is shared with every request that joined the
	// flight and goes back to the pool with the last of them — for this
	// one, once w.Write below has returned.
	defer fl.release()
	if err != nil {
		s.tenants.update(tenant, func(t *TenantStats) { t.Requests++; t.Reads++; t.Errors++ })
		if ctx.Err() != nil {
			// The request's own deadline expired (or its client left)
			// while parked on a shared fill; the fill itself keeps
			// running for the remaining waiters.
			unavailable(w, err)
			return
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// Our own ctx is live, so the cancellation is someone
			// else's: the single-flight leader whose ctx drove the
			// shared fill left before the coalescer settled, poisoning
			// the waiters with its abandonment. The data is fine and a
			// retry will refetch it — transient, not a server fault.
			unavailable(w, err)
			return
		}
		httpError(w, http.StatusInternalServerError, "read %v: %v", box, err)
		return
	}
	out := fl.buf.B
	if !box.Equal(ab) || order != drxmp.RowMajor {
		// The slice is this request's alone: pooled too, and back in
		// the pool once w.Write has returned.
		pooled := mpiio.GetBuf(n)
		defer pooled.Release()
		out = pooled.B
		sliceSection(out, fl.buf.B, ab, box, es, order)
	}
	s.tenants.update(tenant, func(t *TenantStats) {
		t.Requests++
		t.Reads++
		t.BytesOut += int64(len(out))
		if waited {
			t.QueueWaits++
		}
		if shared {
			t.SingleFlightHits++
		}
		if coalesced {
			t.CoalescedReads++
		}
	})
	w.Header().Set("Content-Type", "application/octet-stream")
	// Sized, not chunked: the client reads into one buffer of this
	// length and can tell a truncated body from a complete one.
	w.Header().Set("Content-Length", strconv.FormatInt(n, 10))
	if shared {
		w.Header().Set("X-Drx-Single-Flight", "hit")
	} else {
		w.Header().Set("X-Drx-Single-Flight", "fill")
	}
	if coalesced {
		w.Header().Set("X-Drx-Coalesced", "1")
	}
	if waited {
		w.Header().Set("X-Drx-Queued", "1")
	}
	setCacheHeader(w, a)
	// The last byte waits in net/http's response buffer until this
	// handler has returned — after the deferred releases above. A client
	// that has read its whole (sized) body therefore finds its admission
	// slot free again: a closed-loop client never queues behind its own
	// previous request, and no trace sees a handler outlive its round
	// trip. (A chunked body gave this for free: its terminator is only
	// sent when the handler returns.)
	if last := len(out) - 1; last > 0 {
		w.Write(out[:last])
		out = out[last:]
	}
	w.Write(out)
}

// setCacheHeader stamps the X-Drx-Cache debug header: "off" when the
// array runs uncached, otherwise a snapshot of the tiered-cache
// counters and effective (possibly adaptively retuned) knobs. The
// counters are cumulative across the array, not attributed to this
// request — two requests racing see each other's hits — which is why
// this is a debug header and the per-array stats JSON is the real API.
func setCacheHeader(w http.ResponseWriter, a *array) {
	if a.f.CacheBytes() <= 0 {
		w.Header().Set("X-Drx-Cache", "off")
		return
	}
	cs := a.f.CacheStats()
	w.Header().Set("X-Drx-Cache", fmt.Sprintf(
		"hits=%d misses=%d spill_hits=%d spill_used=%d sieve=%d ra=%d",
		cs.Hits, cs.Misses, cs.SpillHits, cs.SpillUsed, cs.SieveSize, cs.ReadAheadBytes))
}

func (s *Server) handleWrite(w http.ResponseWriter, r *http.Request) {
	a := s.array(r.PathValue("name"))
	if a == nil {
		httpError(w, http.StatusNotFound, "no such array %q", r.PathValue("name"))
		return
	}
	tenant := tenantOf(r)
	box, err := requestBox(r, a)
	if err != nil {
		s.tenants.update(tenant, func(t *TenantStats) { t.Requests++; t.Errors++ })
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	order, err := parseOrder(r)
	if err != nil {
		s.tenants.update(tenant, func(t *TenantStats) { t.Requests++; t.Errors++ })
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	es := int64(a.f.DType().Size())
	n := box.Volume() * es
	if r.ContentLength >= 0 && r.ContentLength != n {
		s.tenants.update(tenant, func(t *TenantStats) { t.Requests++; t.Errors++ })
		httpError(w, http.StatusBadRequest, "body of %d bytes for %d-byte section %v", r.ContentLength, n, box)
		return
	}

	// Admission comes BEFORE the body is buffered (n is known from the
	// box), so MaxInFlightBytes bounds write buffers too: a burst of
	// large PUTs holds one admitted body, not one per connection.
	ctx := r.Context()
	waited, err := a.adm.acquire(ctx, n)
	if err != nil {
		s.tenants.update(tenant, func(t *TenantStats) { t.Requests++; t.Writes++; t.Errors++ })
		unavailable(w, err)
		return
	}
	defer a.adm.release(n)

	// A slow sender now holds its slot while it sends, so the request's
	// deadline (RequestTimeout) also bounds the body read. Best effort:
	// a writer with no connection behind it has nothing to time out.
	if dl, ok := ctx.Deadline(); ok {
		_ = http.NewResponseController(w).SetReadDeadline(dl)
	}
	// One n-byte buffer, then a one-byte probe for a body that runs
	// past it (an unsized, chunked PUT is only measured here). Pooled:
	// WriteSection packs the bytes into its own scratch and keeps
	// nothing of the caller's.
	pooled := mpiio.GetBuf(n)
	defer pooled.Release()
	body := pooled.B
	got, err := io.ReadFull(r.Body, body)
	if err == nil {
		var probe [1]byte
		if m, _ := io.ReadFull(r.Body, probe[:]); m > 0 {
			got, err = got+m, errors.New("body runs past the section")
		}
	}
	if err != nil {
		s.tenants.update(tenant, func(t *TenantStats) { t.Requests++; t.Errors++ })
		if errors.Is(err, os.ErrDeadlineExceeded) {
			unavailable(w, fmt.Errorf("body of %d bytes for %d-byte section %v: %w", got, n, box, err))
			return
		}
		httpError(w, http.StatusBadRequest, "body of %d bytes for %d-byte section %v: %v", got, n, box, err)
		return
	}

	if err := a.f.WriteSection(box, body, order); err != nil {
		s.tenants.update(tenant, func(t *TenantStats) { t.Requests++; t.Writes++; t.Errors++ })
		httpError(w, http.StatusInternalServerError, "write %v: %v", box, err)
		return
	}
	// Completed writes invalidate the single-flight keyspace: a read
	// issued after this point never shares a fill that predates it.
	a.gen.Add(1)
	s.tenants.update(tenant, func(t *TenantStats) {
		t.Requests++
		t.Writes++
		t.BytesIn += n
		if waited {
			t.QueueWaits++
		}
	})
	if waited {
		w.Header().Set("X-Drx-Queued", "1")
	}
	w.WriteHeader(http.StatusNoContent)
}
