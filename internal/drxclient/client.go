// Package drxclient is the resilient client for the drxserve
// /v1/arrays API: the serving tier built in internal/serve survives a
// flaky network, a restarting server, or an overloaded admission queue
// only if its clients degrade gracefully too. Every call propagates
// the caller's context deadline; on top of that the client layers
//
//   - bounded exponential backoff with jitter on retryable failures
//     (connection errors, 429/503 with Retry-After honored, gateway
//     5xx, truncated bodies, idempotent GET attempt timeouts),
//   - hedged reads: a second attempt fires after a delay derived from
//     the client's own observed latency percentile, so one straggling
//     server (or one dropped packet) does not become the request's
//     tail — the drxserve-side analog of pfs's degraded-read deadline,
//   - a per-endpoint circuit breaker (closed / open / half-open with
//     probe requests), so a dead server fails fast instead of burning
//     a full retry budget per call,
//   - ClientStats counters surfacing how often each mechanism fired.
//
// Retries and hedges are safe by the API's semantics: section GETs are
// pure reads, and a section PUT is a full overwrite of its box (last
// writer wins), so replaying one after a lost response rewrites the
// same bytes. Only GETs hedge — two concurrent identical writes would
// still be correct, but hedging writes doubles store write traffic for
// no tail benefit (the write path is not the latency-critical one).
package drxclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// RetryPolicy tunes the bounded-backoff retry loop.
type RetryPolicy struct {
	// MaxAttempts is the total attempt budget per call, first try
	// included (0 means the default 4; 1 disables retries).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff (default 5ms): attempt n
	// waits jittered BaseDelay*2^(n-1), capped at MaxDelay.
	BaseDelay time.Duration
	// MaxDelay caps the backoff and any server-sent Retry-After
	// (default 500ms).
	MaxDelay time.Duration
	// AttemptTimeout caps each individual attempt (0 = none). An
	// attempt that exceeds it is retried while the call's own deadline
	// allows — the "idempotent GET timeout" retry.
	AttemptTimeout time.Duration
}

// HedgePolicy tunes hedged reads.
type HedgePolicy struct {
	// Enabled turns hedging on for GET section reads.
	Enabled bool
	// Quantile of the client's observed read latency after which the
	// hedge fires (default 0.9).
	Quantile float64
	// MinDelay floors the hedge delay (default 1ms).
	MinDelay time.Duration
	// WarmupDelay is used until enough latency samples have been
	// observed to trust the percentile (default 10ms).
	WarmupDelay time.Duration
}

// BreakerPolicy tunes the per-endpoint circuit breaker.
type BreakerPolicy struct {
	// Disabled turns the breaker off entirely.
	Disabled bool
	// FailureThreshold is the consecutive-failure count that opens the
	// breaker (default 5).
	FailureThreshold int
	// OpenFor is how long an opened breaker rejects calls before
	// letting a half-open probe through (default 2s).
	OpenFor time.Duration
}

// Options configures a Client. The zero value is a sane resilient
// default: 4 attempts with jittered backoff, breaker armed, hedging
// off.
type Options struct {
	// Transport is the underlying RoundTripper (default
	// http.DefaultTransport). Tests inject FaultTransport here.
	Transport http.RoundTripper
	// Timeout is the default per-call deadline applied when the
	// caller's context has none (0 = none).
	Timeout time.Duration
	Retry   RetryPolicy
	Hedge   HedgePolicy
	Breaker BreakerPolicy
	// Seed makes the backoff jitter deterministic in tests (0 = 1).
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Transport == nil {
		o.Transport = http.DefaultTransport
	}
	if o.Retry.MaxAttempts == 0 {
		o.Retry.MaxAttempts = 4
	}
	if o.Retry.BaseDelay == 0 {
		o.Retry.BaseDelay = 5 * time.Millisecond
	}
	if o.Retry.MaxDelay == 0 {
		o.Retry.MaxDelay = 500 * time.Millisecond
	}
	if o.Hedge.Quantile == 0 {
		o.Hedge.Quantile = 0.9
	}
	if o.Hedge.MinDelay == 0 {
		o.Hedge.MinDelay = time.Millisecond
	}
	if o.Hedge.WarmupDelay == 0 {
		o.Hedge.WarmupDelay = 10 * time.Millisecond
	}
	if o.Breaker.FailureThreshold == 0 {
		o.Breaker.FailureThreshold = 5
	}
	if o.Breaker.OpenFor == 0 {
		o.Breaker.OpenFor = 2 * time.Second
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// ClientStats counts what the resilience mechanisms did. All fields
// are cumulative.
type ClientStats struct {
	Calls            int64 `json:"calls"`             // logical API calls
	Errors           int64 `json:"errors"`            // calls that failed after all attempts
	Attempts         int64 `json:"attempts"`          // physical HTTP attempts (hedges included)
	Retries          int64 `json:"retries"`           // attempts past the first per call
	Hedges           int64 `json:"hedges"`            // hedge attempts launched
	HedgeWins        int64 `json:"hedge_wins"`        // calls won by the hedge attempt
	BreakerOpens     int64 `json:"breaker_opens"`     // closed/half-open -> open transitions
	BreakerRejects   int64 `json:"breaker_rejects"`   // attempts refused by an open breaker
	DeadlineExceeded int64 `json:"deadline_exceeded"` // calls abandoned on the caller's deadline
}

// Client is a resilient drxserve API client. Safe for concurrent use.
type Client struct {
	base string
	opt  Options
	hc   *http.Client

	lat *latencyTracker

	bmu      sync.Mutex
	breakers map[string]*breaker

	rmu sync.Mutex
	rng *rand.Rand

	calls, errs, attempts, retries atomic.Int64
	hedges, hedgeWins              atomic.Int64
	breakerOpens, breakerRejects   atomic.Int64
	deadlineExceeded               atomic.Int64
}

// New builds a client for the server at base (e.g.
// "http://127.0.0.1:8080").
func New(base string, opt Options) *Client {
	opt = opt.withDefaults()
	return &Client{
		base:     strings.TrimRight(base, "/"),
		opt:      opt,
		hc:       &http.Client{Transport: opt.Transport},
		lat:      newLatencyTracker(256),
		breakers: map[string]*breaker{},
		rng:      rand.New(rand.NewSource(opt.Seed)),
	}
}

// Stats returns a snapshot of the client's resilience counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Calls:            c.calls.Load(),
		Errors:           c.errs.Load(),
		Attempts:         c.attempts.Load(),
		Retries:          c.retries.Load(),
		Hedges:           c.hedges.Load(),
		HedgeWins:        c.hedgeWins.Load(),
		BreakerOpens:     c.breakerOpens.Load(),
		BreakerRejects:   c.breakerRejects.Load(),
		DeadlineExceeded: c.deadlineExceeded.Load(),
	}
}

// CloseIdleConnections releases kept-alive transport connections.
func (c *Client) CloseIdleConnections() { c.hc.CloseIdleConnections() }

func coords(ix []int) string {
	parts := make([]string, len(ix))
	for i, v := range ix {
		parts[i] = strconv.Itoa(v)
	}
	return strings.Join(parts, ",")
}

// ReadSection fetches the half-open box [lo, hi) of array as raw
// little-endian element bytes in row-major order. Retried and (when
// enabled) hedged.
func (c *Client) ReadSection(ctx context.Context, array string, lo, hi []int) ([]byte, error) {
	u := fmt.Sprintf("%s/v1/arrays/%s/section?lo=%s&hi=%s",
		c.base, url.PathEscape(array), coords(lo), coords(hi))
	return c.call(ctx, http.MethodGet, u, nil, "GET "+array+"/section", c.opt.Hedge.Enabled)
}

// WriteSection stores data (raw element bytes, row-major, dense over
// [lo, hi)) into array. Retried — a section PUT is an idempotent
// full-box overwrite — but never hedged.
func (c *Client) WriteSection(ctx context.Context, array string, lo, hi []int, data []byte) error {
	u := fmt.Sprintf("%s/v1/arrays/%s/section?lo=%s&hi=%s",
		c.base, url.PathEscape(array), coords(lo), coords(hi))
	_, err := c.call(ctx, http.MethodPut, u, data, "PUT "+array+"/section", false)
	return err
}

// Meta is one array's metadata document.
type Meta struct {
	Name       string `json:"name"`
	DType      string `json:"dtype"`
	ElemSize   int    `json:"elem_size"`
	Rank       int    `json:"rank"`
	Bounds     []int  `json:"bounds"`
	ChunkShape []int  `json:"chunk_shape"`
	Order      string `json:"order"`
}

// GetMeta fetches array's metadata.
func (c *Client) GetMeta(ctx context.Context, array string) (Meta, error) {
	var m Meta
	body, err := c.call(ctx, http.MethodGet, c.base+"/v1/arrays/"+url.PathEscape(array), nil, "GET "+array+"/meta", false)
	if err != nil {
		return m, err
	}
	return m, json.Unmarshal(body, &m)
}

// List fetches the registered arrays.
func (c *Client) List(ctx context.Context) ([]Meta, error) {
	body, err := c.call(ctx, http.MethodGet, c.base+"/v1/arrays", nil, "GET /v1/arrays", false)
	if err != nil {
		return nil, err
	}
	var ms []Meta
	return ms, json.Unmarshal(body, &ms)
}

// Ready probes /readyz with a single un-retried request: readiness is
// a freshness signal, stale answers are worse than errors.
func (c *Client) Ready(ctx context.Context) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// ErrCircuitOpen is wrapped by calls rejected while an endpoint's
// breaker is open.
var ErrCircuitOpen = errors.New("drxclient: circuit open")

// StatusError is a non-retryable (or retry-exhausted) HTTP failure.
type StatusError struct {
	Code int
	Body string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("drxclient: status %d: %s", e.Code, strings.TrimSpace(e.Body))
}

// attemptError is the internal classified failure of one attempt.
type attemptError struct {
	err        error
	retryable  bool
	retryAfter time.Duration // server-requested backoff (0 = none)
	breaks     bool          // counts toward the breaker (server trouble, not caller error)
}

func (e *attemptError) Error() string { return e.err.Error() }
func (e *attemptError) Unwrap() error { return e.err }

// call runs the full resilient request path: breaker gate, attempt
// (hedged for reads), classification, backoff, retry.
func (c *Client) call(parent context.Context, method, u string, payload []byte, endpoint string, hedge bool) ([]byte, error) {
	c.calls.Add(1)
	ctx := parent
	if _, has := ctx.Deadline(); !has && c.opt.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.opt.Timeout)
		defer cancel()
	}
	br := c.breaker(endpoint)
	var lastErr error
	for attempt := 0; attempt < c.opt.Retry.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
			var ra time.Duration
			var ae *attemptError
			if errors.As(lastErr, &ae) {
				ra = ae.retryAfter
			}
			if err := c.backoff(ctx, attempt, ra); err != nil {
				c.deadlineExceeded.Add(1)
				c.errs.Add(1)
				return nil, fmt.Errorf("drxclient: %s: deadline during backoff after %w", endpoint, lastErr)
			}
		}
		probe, err := br.allow(time.Now())
		if err != nil {
			c.breakerRejects.Add(1)
			lastErr = &attemptError{err: err, retryable: true}
			continue
		}
		var body []byte
		if hedge && method == http.MethodGet {
			body, err = c.attemptHedged(ctx, method, u)
		} else {
			body, err = c.attemptOnce(ctx, method, u, payload)
		}
		if err == nil {
			br.outcome(true, probe, time.Now(), &c.breakerOpens)
			return body, nil
		}
		lastErr = err
		var ae *attemptError
		if errors.As(err, &ae) {
			if ae.breaks {
				br.outcome(false, probe, time.Now(), &c.breakerOpens)
			} else if probe {
				// A caller-side failure says nothing about the server:
				// don't hold the probe slot hostage.
				br.outcome(true, probe, time.Now(), &c.breakerOpens)
			}
			if !ae.retryable {
				break
			}
			continue
		}
		// Unclassified: the caller's context expired mid-attempt.
		if probe {
			br.outcome(true, probe, time.Now(), &c.breakerOpens)
		}
		if ctx.Err() != nil {
			c.deadlineExceeded.Add(1)
		}
		break
	}
	c.errs.Add(1)
	return nil, fmt.Errorf("drxclient: %s: %w", endpoint, lastErr)
}

// backoff sleeps the jittered exponential delay for the given attempt
// (1-based past-the-first), honoring a server-sent Retry-After and the
// context.
func (c *Client) backoff(ctx context.Context, attempt int, retryAfter time.Duration) error {
	d := c.opt.Retry.BaseDelay << (attempt - 1)
	if d > c.opt.Retry.MaxDelay || d <= 0 {
		d = c.opt.Retry.MaxDelay
	}
	// Equal jitter: half deterministic, half uniform — retries from a
	// synchronized burst decorrelate instead of re-colliding.
	c.rmu.Lock()
	d = d/2 + time.Duration(c.rng.Int63n(int64(d/2)+1))
	c.rmu.Unlock()
	if retryAfter > d {
		d = retryAfter
	}
	if d > c.opt.Retry.MaxDelay {
		d = c.opt.Retry.MaxDelay
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// attemptOnce issues one physical HTTP attempt and classifies its
// outcome.
func (c *Client) attemptOnce(ctx context.Context, method, u string, payload []byte) ([]byte, error) {
	c.attempts.Add(1)
	actx := ctx
	if c.opt.Retry.AttemptTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, c.opt.Retry.AttemptTimeout)
		defer cancel()
	}
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(actx, method, u, rd)
	if err != nil {
		return nil, &attemptError{err: err}
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			// The call's own deadline (or its caller) expired: no budget
			// left, surface the raw context error.
			return nil, ctx.Err()
		}
		if actx.Err() != nil {
			// Only the per-attempt timeout fired: the attempt was slow,
			// not the call dead — retryable for these idempotent verbs.
			return nil, &attemptError{
				err:       fmt.Errorf("attempt timeout after %v: %w", c.opt.Retry.AttemptTimeout, err),
				retryable: true, breaks: true,
			}
		}
		// Transport-level failure: refused, reset, dropped.
		return nil, &attemptError{err: err, retryable: true, breaks: true}
	}
	body, rerr := readBody(resp)
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusNoContent:
		if rerr != nil || (resp.ContentLength >= 0 && int64(len(body)) != resp.ContentLength) {
			// Truncated body: the connection died mid-response.
			if rerr == nil {
				rerr = io.ErrUnexpectedEOF
			}
			return nil, &attemptError{
				err:       fmt.Errorf("truncated response (%d of %d bytes): %w", len(body), resp.ContentLength, rerr),
				retryable: true, breaks: true,
			}
		}
		if method == http.MethodGet {
			c.lat.record(time.Since(start))
		}
		return body, nil
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		return nil, &attemptError{
			err:        &StatusError{Code: resp.StatusCode, Body: string(body)},
			retryable:  true,
			retryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
			breaks:     true,
		}
	case resp.StatusCode == http.StatusBadGateway || resp.StatusCode == http.StatusGatewayTimeout:
		return nil, &attemptError{err: &StatusError{Code: resp.StatusCode, Body: string(body)}, retryable: true, breaks: true}
	case resp.StatusCode >= 500:
		// 500: the server computed an error (bad backend read) — likely
		// deterministic, so don't burn the retry budget, but it IS
		// server trouble for the breaker.
		return nil, &attemptError{err: &StatusError{Code: resp.StatusCode, Body: string(body)}, breaks: true}
	default:
		// 4xx: the caller's mistake; retrying cannot fix it.
		return nil, &attemptError{err: &StatusError{Code: resp.StatusCode, Body: string(body)}}
	}
}

// maxSizedBody caps the buffer readBody sizes from a Content-Length it
// has only the server's word for.
const maxSizedBody = 1 << 30

// readBody reads the response body into one buffer of the announced
// length — a section body is sized once, not regrown by io.ReadAll —
// and returns what arrived together with the read error when the body
// ends short of it. An unknown or implausibly large length falls back
// to io.ReadAll.
func readBody(resp *http.Response) ([]byte, error) {
	n := resp.ContentLength
	if n < 0 || n > maxSizedBody {
		return io.ReadAll(resp.Body)
	}
	body := make([]byte, n)
	got, err := io.ReadFull(resp.Body, body)
	return body[:got], err
}

func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	return 0
}

// breaker returns (creating on first use) the endpoint's breaker.
func (c *Client) breaker(endpoint string) *breaker {
	c.bmu.Lock()
	defer c.bmu.Unlock()
	b, ok := c.breakers[endpoint]
	if !ok {
		b = newBreaker(c.opt.Breaker)
		c.breakers[endpoint] = b
	}
	return b
}
