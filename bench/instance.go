package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"

	"drxmp"
	"drxmp/internal/cluster"
	"drxmp/internal/drxclient"
	"drxmp/internal/pfs"
	"drxmp/internal/serve"
)

// arrayName is the name the serving tier registers the array under.
const arrayName = "a"

// instance is one live array plus everything a driver needs to reach
// it: the system under test of one pass. With more than one rank every
// rank holds its own instance over the shared store and oracle.
type instance struct {
	sp   *spec
	c    *cluster.Comm
	f    *drxmp.File
	or   *oracle
	pool []byte
	tr   *tracer

	// serve_mixed only.
	srv  *serve.Server
	ts   *httptest.Server
	cl   *drxclient.Client
	bare *http.Client
}

var instSeq atomic.Int64

// open collectively creates the array, seeds it from the oracle and
// warms it with one verified read pass over the whole array: the
// set-up a user pays before the first operation.
func open(c *cluster.Comm, sp *spec, or *oracle, pool []byte, dir string, realTime bool, tr *tracer) (*instance, error) {
	fsOpts := sp.fs
	fsOpts.Cost.RealTime = realTime
	tuning := sp.tuning
	id := instSeq.Add(1)
	if sp.spill {
		tuning.SpillPath = filepath.Join(dir, fmt.Sprintf("%s-%d.spill", sp.name, id))
	}
	f, err := drxmp.Create(c, filepath.Join(dir, fmt.Sprintf("%s-%d", sp.name, id)), drxmp.Options{
		DType:      drxmp.Float64,
		ChunkShape: []int{chunkSide, chunkSide},
		Bounds:     []int{sp.dim, sp.dim},
		FS:         fsOpts,
		Tuning:     tuning,
	})
	if err != nil {
		return nil, err
	}
	if c.Rank() != 0 {
		tr = nil // a collective op is traced, like it is timed, on rank 0
	}
	in := &instance{sp: sp, c: c, f: f, or: or, pool: pool, tr: tr}
	if c.Rank() == 0 {
		buf := make([]byte, chunkSide*or.cols*elemSize)
		for r := 0; r < or.rows; r += chunkSide {
			b := box{r, 0, r + chunkSide, or.cols}
			or.read(b, buf)
			if err := f.WriteSection(drxmp.NewBox(b.lo(), b.hi()), buf, drxmp.RowMajor); err != nil {
				return nil, fmt.Errorf("seed %v: %w", b, err)
			}
		}
		if sp.deadServer {
			f.FS().SetInjector(&pfs.FaultPoint{Server: 0, Op: pfs.FaultReads, Permanent: true})
		}
	}
	if sp.http {
		in.serveHTTP()
	}
	if err := c.Barrier(); err != nil {
		return nil, err
	}
	if bad := in.verifyAll(); bad > 0 {
		return nil, fmt.Errorf("%s: warm pass read %d wrong bands", sp.name, bad)
	}
	return in, c.Barrier()
}

// serveHTTP mounts the serving tier and the reference handler on one
// loopback listener and builds the two clients.
func (in *instance) serveHTTP() {
	in.srv = serve.New(serveConfig)
	if err := in.srv.Register(arrayName, in.f); err != nil {
		panic(err) // fresh server, fixed name: cannot collide
	}
	mux := http.NewServeMux()
	mux.Handle("/ref", http.HandlerFunc(in.refHandler))
	mux.Handle("/", tracedHandler(in.tr, in.srv.Handler()))
	in.ts = httptest.NewServer(mux)
	var rt http.RoundTripper = in.ts.Client().Transport
	in.bare = &http.Client{Transport: rt}
	in.cl = drxclient.New(in.ts.URL, drxclient.Options{Transport: &tracedTransport{tr: in.tr, next: rt}})
}

// close collectively closes the array and, on the serving workload,
// the listener and idle connections.
func (in *instance) close() error {
	if in.ts != nil {
		in.cl.CloseIdleConnections()
		in.ts.Close()
	}
	return in.f.Close()
}

// verifyAll reads the whole array back through the workload's own read
// path on rank 0, band by band, and returns how many bands differ from
// the oracle.
func (in *instance) verifyAll() (bad int) {
	if in.c.Rank() != 0 {
		return 0
	}
	buf := make([]byte, chunkSide*in.or.cols*elemSize)
	for r := 0; r < in.or.rows; r += chunkSide {
		b := box{r, 0, min(r+chunkSide, in.or.rows), in.or.cols}
		got, err := in.exec(context.Background(), op{kind: opRead, box: b}, buf[:b.bytes()])
		if err != nil || !in.or.equal(b, got) {
			bad++
		}
	}
	return bad
}

// payload returns the bytes a write op stores.
func (in *instance) payload(o op) []byte {
	return in.pool[o.data : int64(o.data)+o.box.bytes()]
}

// exec performs a read or write through the program. A read returns
// the bytes read (dst, or the client's own slice over HTTP).
func (in *instance) exec(ctx context.Context, o op, dst []byte) ([]byte, error) {
	b := drxmp.NewBox(o.box.lo(), o.box.hi())
	switch {
	case in.sp.http && o.kind == opRead:
		return in.cl.ReadSection(ctx, arrayName, o.box.lo(), o.box.hi())
	case in.sp.http:
		return nil, in.cl.WriteSection(ctx, arrayName, o.box.lo(), o.box.hi(), in.payload(o))
	case o.kind == opRead && o.all:
		return dst, in.f.ReadSectionAll(b, dst, drxmp.RowMajor)
	case o.kind == opRead:
		return dst, in.f.ReadSection(b, dst, drxmp.RowMajor)
	case o.all:
		return nil, in.f.WriteSectionAll(b, in.payload(o), drxmp.RowMajor)
	default:
		return nil, in.f.WriteSection(b, in.payload(o), drxmp.RowMajor)
	}
}

// ref performs the reference transfer of the same bytes: row copies
// between the caller's buffer and the oracle (ranks meeting at a
// barrier when the op is collective on several ranks), or a bare HTTP
// GET/PUT of the same byte count against the plain handler. A read
// returns the oracle's bytes, a write leaves the payload in the oracle.
func (in *instance) ref(o op, dst []byte) ([]byte, error) {
	if in.sp.http {
		return in.refHTTP(o, dst)
	}
	if o.kind == opRead {
		in.or.read(o.box, dst)
	} else {
		in.or.write(o.box, in.payload(o))
	}
	if in.c.Size() > 1 {
		return dst, in.c.Barrier()
	}
	return dst, nil
}

func (in *instance) refHTTP(o op, dst []byte) ([]byte, error) {
	u := fmt.Sprintf("%s/ref?lo=%d,%d&hi=%d,%d", in.ts.URL, o.box.r0, o.box.c0, o.box.r1, o.box.c1)
	method, body := http.MethodGet, io.Reader(nil)
	if o.kind == opWrite {
		method, body = http.MethodPut, bytes.NewReader(in.payload(o))
	}
	req, err := http.NewRequest(method, u, body)
	if err != nil {
		return nil, err
	}
	resp, err := in.bare.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("reference %s: status %d", method, resp.StatusCode)
	}
	if o.kind == opWrite {
		return nil, nil
	}
	_, err = io.ReadFull(resp.Body, dst)
	return dst, err
}

// refHandler is the plain handler behind the paired HTTP reference: a
// GET serves the box from the oracle, a PUT drains the body into it.
func (in *instance) refHandler(w http.ResponseWriter, r *http.Request) {
	var b box
	q := r.URL.Query()
	if n, _ := fmt.Sscanf(q.Get("lo")+" "+q.Get("hi"), "%d,%d %d,%d", &b.r0, &b.c0, &b.r1, &b.c1); n != 4 {
		http.Error(w, "bad box", http.StatusBadRequest)
		return
	}
	buf := make([]byte, b.bytes())
	if r.Method == http.MethodPut {
		if _, err := io.ReadFull(r.Body, buf); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		in.or.write(b, buf)
		w.WriteHeader(http.StatusNoContent)
		return
	}
	in.or.read(b, buf)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(buf)
}
