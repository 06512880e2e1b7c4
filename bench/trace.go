package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one
// operation share Op; Parent is the ID of the span that caused this
// one (0 for an op's root). Times are nanoseconds since the tracer
// started. N is the work the span covered in the span's own unit
// (calls, runs or bytes), so ratios are taken where the work happens.
type span struct {
	ID       int    `json:"id"`
	Workload string `json:"workload"`
	Name     string `json:"name"`
	Start    int64  `json:"start"`
	End      int64  `json:"end"`
	Parent   int    `json:"parent"`
	Op       int    `json:"op"`
	Kind     string `json:"kind,omitempty"` // "read" or "write", on an op's root
	Replay   bool   `json:"replay,omitempty"`
	N        int64  `json:"n,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so the scored run takes the same code path with
// tracing off.
type tracer struct {
	workload string
	t0       time.Time
	mu       sync.Mutex
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// begin opens a span and returns its ID (0 from a nil tracer).
func (t *tracer) begin(name string, parent, op int, replay bool) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Workload: t.workload, Name: name, Start: now, Parent: parent, Op: op, Replay: replay})
	return id
}

// root opens op's root span.
func (t *tracer) root(op int, kind opKind) int {
	id := t.begin("op", 0, op, false)
	if t != nil {
		t.mu.Lock()
		t.spans[id-1].Kind = [...]string{opRead: "read", opWrite: "write"}[kind]
		t.mu.Unlock()
	}
	return id
}

// end closes span id now, recording n units of work.
func (t *tracer) end(id int, n int64) { t.endAt(id, time.Now(), n) }

// endAt closes span id at a time taken earlier, so bookkeeping can wait
// until the timed section is over.
func (t *tracer) endAt(id int, at time.Time, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End, t.spans[id-1].N = int64(at.Sub(t.t0)), n
	t.mu.Unlock()
}

// replay times fn as a replay span under parent; fn returns its work
// count. With a nil tracer fn still runs, so ranks without a tracer
// take part in collective replays.
func (t *tracer) replay(name string, parent, op int, fn func() int64) {
	id := t.begin(name, parent, op, true)
	n := fn()
	t.end(id, n)
}

// writeSpans writes spans as a JSON array.
func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// opHeader carries an op's identity from the client side to the
// handler wrapper, joining the spans of both sides of the wire.
const opHeader = "X-Bench-Op"

type traceKey struct{}

// traceRef names the span a downstream span should hang under.
type traceRef struct{ op, parent int }

func withTraceRef(ctx context.Context, op, parent int) context.Context {
	return context.WithValue(ctx, traceKey{}, traceRef{op, parent})
}

// tracedTransport is the RoundTripper passed to drxclient as
// Options.Transport: it records an http.roundtrip span per attempt,
// open until the response body is closed, and stamps the op header.
type tracedTransport struct {
	tr   *tracer
	next http.RoundTripper
}

func (tt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ref, ok := req.Context().Value(traceKey{}).(traceRef)
	if tt.tr == nil || !ok {
		return tt.next.RoundTrip(req)
	}
	id := tt.tr.begin("http.roundtrip", ref.parent, ref.op, false)
	req = req.Clone(req.Context())
	req.Header.Set(opHeader, fmt.Sprintf("%d.%d", ref.op, id))
	resp, err := tt.next.RoundTrip(req)
	if err != nil {
		tt.tr.end(id, 0)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() { tt.tr.end(id, resp.ContentLength) }}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}

// tracedHandler wraps the serving tier's handler with a serve.handler
// span joined to the client's round trip by the op header.
func tracedHandler(tr *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var op, parent int
		if tr == nil || r.Header.Get(opHeader) == "" {
			next.ServeHTTP(w, r)
			return
		}
		fmt.Sscanf(r.Header.Get(opHeader), "%d.%d", &op, &parent)
		id := tr.begin("serve.handler", parent, op, false)
		next.ServeHTTP(w, r)
		tr.end(id, r.ContentLength)
	})
}
