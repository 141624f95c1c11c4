package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"eugene/internal/cache"
	"eugene/internal/dataset"
	"eugene/internal/snapshot"
)

// RetryPolicy controls the client's bounded-retry behavior for safe
// (idempotent) operations: inference submissions and GETs. Mutating
// calls — train, calibrate, observe, snapshot upload — are never
// retried; resubmitting them on an ambiguous failure could apply the
// mutation twice.
//
// Waits between attempts use capped exponential backoff with full
// jitter (a uniform draw from [0, BaseBackoff·2^retry], capped at
// MaxBackoff), the shape that avoids synchronized retry storms from a
// fleet of clients rejected at the same instant. A server-supplied
// Retry-After (the 429 admission-control hint) raises the wait to at
// least that long, but never past MaxBackoff: the header is the
// server's to send, and an hour in it must not park a caller that set no
// deadline for an hour.
type RetryPolicy struct {
	// MaxAttempts bounds total tries, first attempt included (≤1 means
	// no retries).
	MaxAttempts int
	// BaseBackoff is the first retry's jitter cap (0 = 50ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the jitter window growth and the Retry-After hint
	// (0 = 2s).
	MaxBackoff time.Duration
	// Budget is the per-client retry token budget: each retry spends a
	// token, each success restores a tenth of one, and when the bucket
	// is empty failures return immediately. The budget bounds retry
	// amplification during a sustained outage — a client fleet that
	// retried every failure forever would multiply exactly the overload
	// that caused the failures. 0 means unbudgeted.
	Budget int
}

// DefaultRetryPolicy is the policy used by clients that want resilience
// without tuning: 4 attempts, 50ms–2s full-jitter backoff, a 10-token
// budget.
func DefaultRetryPolicy() *RetryPolicy {
	return &RetryPolicy{MaxAttempts: 4, BaseBackoff: 50 * time.Millisecond, MaxBackoff: 2 * time.Second, Budget: 10}
}

// Client is the Go client for a Eugene server.
type Client struct {
	// Base is the server URL, e.g. "http://localhost:8080".
	Base string
	// Routers, when non-empty, overrides Base with a list of equivalent
	// endpoints (typically redundant cluster routers over the same
	// replica fleet). The client sticks to one router and fails
	// idempotent requests over to the next when it dies (transport
	// error or gateway-class 5xx) — overload (429) does not trigger
	// failover, since a saturated fleet is saturated through every
	// router. Non-idempotent requests are never re-sent: they go to the
	// current router and report its error, but that failure still moves
	// later requests on to the next router.
	Routers []string
	// HTTP is the underlying client; nil uses the package's shared
	// pooled client (see sharedClient). The shared client sets no
	// overall Timeout and does not inherit customizations made to
	// http.DefaultClient — bound requests with a context deadline, or
	// set HTTP explicitly to control transport and timeout policy.
	HTTP *http.Client
	// Retry enables bounded retries for idempotent operations; nil
	// keeps the historical fail-fast behavior.
	Retry *RetryPolicy

	// budget is the retry token bucket (lazy-filled on first use).
	budget RetryBudget
	// routerIdx is the cursor into Routers: requests stick to
	// Routers[routerIdx mod len] until a failover advances it.
	routerIdx atomic.Uint64
}

// NewClient builds a client for the given base URL.
func NewClient(base string) *Client { return &Client{Base: base} }

// NewResilientClient builds a client with DefaultRetryPolicy retries.
func NewResilientClient(base string) *Client {
	return &Client{Base: base, Retry: DefaultRetryPolicy()}
}

// NewFailoverClient builds a client that spreads idempotent retries
// across several equivalent endpoints (redundant cluster routers) under
// DefaultRetryPolicy. With one base it behaves exactly like
// NewResilientClient.
func NewFailoverClient(bases ...string) *Client {
	return &Client{Routers: bases, Retry: DefaultRetryPolicy()}
}

// baseList is the ordered endpoint set: Routers when set, else the
// single Base.
func (c *Client) baseList() []string {
	if len(c.Routers) > 0 {
		return c.Routers
	}
	return []string{c.Base}
}

// currentBase is the endpoint requests currently stick to.
func (c *Client) currentBase() string {
	bases := c.baseList()
	return bases[c.routerIdx.Load()%uint64(len(bases))]
}

// failoverWorthy reports whether err indicates the endpoint itself is
// gone or wedged (transport failure, gateway-class 5xx) rather than the
// request being bad or the fleet overloaded. Only these advance the
// router cursor.
func failoverWorthy(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var se *ServerError
	if errors.As(err, &se) {
		switch se.Status {
		case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			return true
		}
		return false
	}
	return true // transport-level failure
}

// noteFailure advances the router cursor past the endpoint at idx when
// err suggests that endpoint is dead. CompareAndSwap keeps concurrent
// failures from skipping endpoints: many requests failing against the
// same router advance the cursor once.
func (c *Client) noteFailure(idx uint64, err error) {
	if len(c.baseList()) > 1 && failoverWorthy(err) {
		c.routerIdx.CompareAndSwap(idx, idx+1)
	}
}

// sharedClient backs every Client without an explicit HTTP override.
// http.DefaultTransport keeps only 2 idle connections per host
// (DefaultMaxIdleConnsPerHost), so an inference loop hammering one
// Eugene server redials — and pays connection setup — on most requests
// once more than two are in flight. The shared transport keeps a pool
// sized for serving benchmarks and edge-cache loops against a handful
// of servers.
var sharedClient = &http.Client{Transport: newSharedTransport()}

func newSharedTransport() *http.Transport {
	t, ok := http.DefaultTransport.(*http.Transport)
	if !ok {
		// A build with a replaced DefaultTransport (tests, instrumented
		// binaries) keeps its own pooling behavior.
		return &http.Transport{MaxIdleConnsPerHost: 32}
	}
	t = t.Clone()
	t.MaxIdleConns = 128
	t.MaxIdleConnsPerHost = 32
	// Room for a 64-row batch's headers and body together: the request
	// then leaves in one write, where the default 4 KiB buffer sends the
	// body on in pieces through a 32 KiB copy buffer allocated per
	// request.
	t.WriteBufferSize = 64 << 10
	return t
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return sharedClient
}

// ServerError is a non-2xx response from the server. RetryAfter
// carries the Retry-After header (0 when absent) — on a 429 it is the
// scheduler's estimate of when a resubmission could meet its deadline.
type ServerError struct {
	Status     int
	Msg        string
	RetryAfter time.Duration
}

// Error implements error.
func (e *ServerError) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("service: server error (%d): %s", e.Status, e.Msg)
	}
	return fmt.Sprintf("service: server status %d", e.Status)
}

// retryable reports whether an idempotent request that failed with err
// is worth retrying: transient server statuses and transport-level
// failures are; context expiry and definitive server answers (4xx
// other than 429, 500) are not.
func retryable(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var se *ServerError
	if errors.As(err, &se) {
		switch se.Status {
		case http.StatusTooManyRequests, http.StatusBadGateway,
			http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			return true
		}
		return false
	}
	// Transport-level failure (dial, reset, EOF): the request may never
	// have reached the server; for idempotent operations a duplicate is
	// harmless.
	return true
}

// retryAfterOf extracts the server's Retry-After hint from err, if any.
func retryAfterOf(err error) time.Duration {
	var se *ServerError
	if errors.As(err, &se) {
		return se.RetryAfter
	}
	return 0
}

// retryTokenScale is the bucket's fixed-point scale: a retry costs one
// token (1024 units), a success refunds 1/10 of one.
const retryTokenScale = 1024

// RetryBudget is the token bucket behind RetryPolicy.Budget: each retry
// spends a token, each success refunds a tenth of one, and an empty
// bucket stops retrying. The zero value is ready to use (lazy-filled to
// capacity on first Take/Credit). It is shared infrastructure: the
// client uses one per connection target, and the cluster router uses
// one to bound request failovers across replicas, so a dead fleet
// cannot amplify load onto its survivors.
type RetryBudget struct {
	tokens atomic.Int64
	init   sync.Once
}

// Take spends one retry token against the given capacity (in whole
// tokens), reporting false when the budget is exhausted. capacity ≤ 0
// means unbudgeted (always true).
func (b *RetryBudget) Take(capacity int) bool {
	cap64 := int64(capacity) * retryTokenScale
	if cap64 <= 0 {
		return true
	}
	b.init.Do(func() { b.tokens.Store(cap64) })
	for {
		cur := b.tokens.Load()
		if cur < retryTokenScale {
			return false
		}
		if b.tokens.CompareAndSwap(cur, cur-retryTokenScale) {
			return true
		}
	}
}

// Credit refunds a tenth of a token on success, up to capacity.
func (b *RetryBudget) Credit(capacity int) {
	cap64 := int64(capacity) * retryTokenScale
	if cap64 <= 0 {
		return
	}
	b.init.Do(func() { b.tokens.Store(cap64) })
	for {
		cur := b.tokens.Load()
		next := min(cur+retryTokenScale/10, cap64)
		if next == cur {
			return
		}
		if b.tokens.CompareAndSwap(cur, next) {
			return
		}
	}
}

// maxBackoff is MaxBackoff with its default.
func (p *RetryPolicy) maxBackoff() time.Duration {
	if p.MaxBackoff <= 0 {
		return 2 * time.Second
	}
	return p.MaxBackoff
}

// backoffWait sleeps before retry number retry (0-based): a full-jitter
// draw from the capped exponential window, raised to the server's
// Retry-After hint when that is longer. Returns early with ctx.Err()
// when the context expires mid-wait.
func backoffWait(ctx context.Context, p *RetryPolicy, retry int, hint time.Duration) error {
	base := p.BaseBackoff
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	maxB := p.maxBackoff()
	window := base << uint(min(retry, 30))
	if window <= 0 || window > maxB {
		window = maxB
	}
	d := time.Duration(rand.Int63n(int64(window) + 1))
	if hint > d {
		d = hint
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// do is every Client call: one request per attempt (see send), tried
// once, or under the retry policy when idempotent. in, when not nil, is
// the body: a []byte goes as is, as octet-stream; anything else as
// JSON.
func (c *Client) do(ctx context.Context, method, path string, in any, idempotent bool, out any) error {
	var body []byte
	contentType := "application/octet-stream"
	switch in := in.(type) {
	case nil:
		contentType = ""
	case []byte:
		body = in
	default:
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("service: encoding request: %w", err)
		}
		contentType = "application/json"
	}
	return c.retry(ctx, idempotent, func(base string) error {
		return c.send(ctx, method, base, path, body, contentType, out)
	})
}

// retry runs attempt against the endpoint the router cursor points at:
// once, or — for an idempotent call, the only kind that may be sent
// twice — up to the retry policy's MaxAttempts. Every failed attempt is
// reported to the cursor, so whatever kind of call met a dead router,
// the next one goes to the following router. Moving the cursor replays
// nothing; only a retry does.
func (c *Client) retry(ctx context.Context, idempotent bool, attempt func(base string) error) error {
	p := c.Retry
	tries := 1
	if idempotent && p != nil {
		tries = max(p.MaxAttempts, 1)
	}
	var lastErr error
	for i := range tries {
		if i > 0 {
			if !c.budget.Take(p.Budget) {
				return lastErr
			}
			if err := backoffWait(ctx, p, i-1, min(retryAfterOf(lastErr), p.maxBackoff())); err != nil {
				return lastErr
			}
		}
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return lastErr
			}
			return err
		}
		bases := c.baseList()
		idx := c.routerIdx.Load()
		if lastErr = attempt(bases[idx%uint64(len(bases))]); lastErr == nil {
			if tries > 1 {
				c.budget.Credit(p.Budget)
			}
			return nil
		}
		c.noteFailure(idx, lastErr)
		if !retryable(lastErr) {
			return lastErr
		}
	}
	return lastErr
}

// send makes one attempt: method base+path with a fresh reader over
// body, so that a retry never resends a half-consumed one. A non-200
// answer is a *ServerError. A 200's body is decoded into out (a frame or
// JSON), read whole when out is a *[]byte, and discarded when out is nil.
func (c *Client) send(ctx context.Context, method, base, path string, body []byte, contentType string, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, base+path, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("service: building request: %w", err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return fmt.Errorf("service: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return serverError(resp)
	}
	switch out := out.(type) {
	case nil:
		_, err = io.Copy(io.Discard, resp.Body)
	case *[]byte:
		*out, err = io.ReadAll(resp.Body)
	default:
		if !isFrame(resp.Header) {
			err = json.NewDecoder(resp.Body).Decode(out)
			break
		}
		// Sized by Content-Length, so that one allocation holds the answer.
		b := bytes.NewBuffer(make([]byte, 0, min(max(resp.ContentLength, 0), MaxBatchBody)+bytes.MinRead))
		if _, err = b.ReadFrom(resp.Body); err == nil {
			err = decodeAnswers(b.Bytes(), out)
		}
	}
	if err != nil {
		return fmt.Errorf("service: decoding response: %w", err)
	}
	return nil
}

// Train uploads data and trains a model.
func (c *Client) Train(ctx context.Context, name string, req TrainRequest) (*TrainResponse, error) {
	var out TrainResponse
	if err := c.do(ctx, http.MethodPost, modelPath(name, "train"), req, false, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Calibrate runs entropy calibration on held-out data.
func (c *Client) Calibrate(ctx context.Context, name string, data *dataset.Set) (float64, error) {
	var out CalibrateResponse
	if err := c.do(ctx, http.MethodPost, modelPath(name, "calibrate"), FromSet(data), false, &out); err != nil {
		return 0, err
	}
	return out.Alpha, nil
}

// BuildPredictor fits the GP confidence predictor.
func (c *Client) BuildPredictor(ctx context.Context, name string, data *dataset.Set) error {
	return c.do(ctx, http.MethodPost, modelPath(name, "predictor"), FromSet(data), false, nil)
}

// Infer submits one sample for scheduled inference. With a Retry
// policy set, transient failures (429 overload, 503, transport errors)
// are retried under jittered backoff — inference is pure compute, so a
// duplicate submission is safe.
func (c *Client) Infer(ctx context.Context, name string, input []float64) (*InferResponse, error) {
	var out InferResponse
	err := c.postInfer(ctx, modelPath(name, "infer"), true, &out,
		func(dst []byte) ([]byte, error) { return appendFrame(dst, "", input) })
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// InferBatch submits several samples in one scheduler interaction and
// returns one result per input, in order. Retried like Infer.
func (c *Client) InferBatch(ctx context.Context, name string, inputs [][]float64) ([]InferResponse, error) {
	var out InferBatchResponse
	err := c.postInfer(ctx, modelPath(name, "infer-batch"), true, &out,
		func(dst []byte) ([]byte, error) { return appendFrame(dst, "", inputs...) })
	if err != nil {
		return nil, err
	}
	return out.Results, nil
}

// InferObserved is Infer with a device tag: the server feeds the
// answered prediction into the device's class-frequency tracker, the
// signal behind edge-cache decisions. Not retried: a replay would
// double-count the observation.
func (c *Client) InferObserved(ctx context.Context, name, device string, input []float64) (*InferResponse, error) {
	var out InferResponse
	err := c.postInfer(ctx, modelPath(name, "infer"), false, &out,
		func(dst []byte) ([]byte, error) { return appendFrame(dst, device, input) })
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// postInfer frames an infer request into a pooled buffer and posts it:
// under the retry policy when idempotent (inference is pure compute — a
// duplicate submission computes the same answer twice), once otherwise.
// The buffer goes back to the pool only if every attempt made ended in
// a 200 whose body has been read and closed: a server answers 200 after
// reading the whole request, so the transport is done with the bytes,
// whereas after a failed attempt, or an answer sent without reading (a
// 413, say), its write loop may still hold them, and the buffer is left
// to the collector.
func (c *Client) postInfer(ctx context.Context, path string, idempotent bool, out any, encode func(dst []byte) ([]byte, error)) error {
	body := GetBodyBuf()
	var err error
	if body.B, err = encode(body.B[:0]); err != nil {
		body.Release()
		return fmt.Errorf("service: encoding request: %w", err)
	}
	clean := true
	err = c.retry(ctx, idempotent, func(base string) error {
		err := c.send(ctx, http.MethodPost, base, path, body.B, FrameType, out)
		clean = clean && err == nil
		return err
	})
	if clean {
		body.Release()
	}
	return err
}

// modelPath is the route of the named model's action.
func modelPath(name, action string) string {
	return "/v1/models/" + url.PathEscape(name) + "/" + action
}

// devicePath is the route of the device's action.
func devicePath(device, action string) string {
	return "/v1/devices/" + url.PathEscape(device) + "/" + action
}

// Snapshot downloads the named model's full snapshot (model weights,
// calibration, predictor) in binary snapshot format. precision "f32"
// requests the half-size float32 weight payload; empty or "f64" the
// lossless float64 form.
func (c *Client) Snapshot(ctx context.Context, name, precision string) ([]byte, error) {
	path := modelPath(name, "snapshot")
	if precision != "" {
		path += "?precision=" + url.QueryEscape(precision)
	}
	var raw []byte
	if err := c.do(ctx, http.MethodGet, path, nil, true, &raw); err != nil {
		return nil, err
	}
	return raw, nil
}

// PutSnapshot uploads a snapshot, installing (and, when the server has
// a data dir, persisting) it under name.
func (c *Client) PutSnapshot(ctx context.Context, name string, raw []byte) error {
	return c.do(ctx, http.MethodPut, modelPath(name, "snapshot"), raw, false, nil)
}

// Reduce asks the server to train a reduced hot-class model; the
// response carries the model in snapshot format (see DecodeSubset).
func (c *Client) Reduce(ctx context.Context, name string, req ReduceRequest) (*SubsetModelResponse, error) {
	var out SubsetModelResponse
	if err := c.do(ctx, http.MethodPost, modelPath(name, "reduce"), req, false, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Observe reports count observed requests of class for device (count
// ≤ 0 means 1).
func (c *Client) Observe(ctx context.Context, device, model string, class, count int) error {
	return c.do(ctx, http.MethodPost, devicePath(device, "observe"),
		ObserveRequest{Model: model, Class: class, Count: count}, false, nil)
}

// CacheDecision fetches the caching policy's verdict for a device.
func (c *Client) CacheDecision(ctx context.Context, device string) (*CacheDecisionResponse, error) {
	var out CacheDecisionResponse
	if err := c.do(ctx, http.MethodGet, devicePath(device, "cache-decision"), nil, true, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// SubsetModel fetches (building if necessary) the reduced model the
// device should cache. hidden/epochs of 0 take server defaults;
// precision "f32" downloads the half-size float32 snapshot form (the
// right choice for bandwidth-constrained devices — the decoded model
// predicts the same classes).
func (c *Client) SubsetModel(ctx context.Context, device string, hidden, epochs int, precision string) (*SubsetModelResponse, error) {
	u := devicePath(device, "subset-model")
	q := url.Values{}
	if hidden > 0 {
		q.Set("hidden", strconv.Itoa(hidden))
	}
	if epochs > 0 {
		q.Set("epochs", strconv.Itoa(epochs))
	}
	if precision != "" {
		q.Set("precision", precision)
	}
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	var out SubsetModelResponse
	if err := c.do(ctx, http.MethodGet, u, nil, true, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// DecodeSubset materializes the runnable device model from a reduction
// response.
func (c *Client) DecodeSubset(resp *SubsetModelResponse) (*cache.SubsetModel, error) {
	return snapshot.DecodeSubset(bytes.NewReader(resp.Snapshot))
}

// Stats fetches per-model serving counters.
func (c *Client) Stats(ctx context.Context) (map[string]ModelStats, error) {
	var out StatsResponse
	if err := c.do(ctx, http.MethodGet, "/v1/stats", nil, true, &out); err != nil {
		return nil, err
	}
	return out.Models, nil
}

// Models lists registered models.
func (c *Client) Models(ctx context.Context) ([]string, error) {
	var out struct {
		Models []string `json:"models"`
	}
	if err := c.do(ctx, http.MethodGet, "/v1/models", nil, true, &out); err != nil {
		return nil, err
	}
	return out.Models, nil
}

// DefaultProbeTimeout bounds a Ready probe whose context carries no
// deadline. A readiness probe is a liveness signal, not a request: on a
// hung node (accepting connections, never answering) an unbounded probe
// would inherit the transport's no-timeout default and report the node
// healthy for as long as the caller's request timeout — O(minutes)
// instead of O(probe interval). Health-checkers that probe on a fixed
// cadence should pass a context deadline derived from that cadence
// instead (see cluster health probing).
const DefaultProbeTimeout = 2 * time.Second

// Ready probes the server's readiness endpoint: an error means the
// server is absent, hung, or draining and new work should go elsewhere.
// Without a context deadline the probe is bounded by
// DefaultProbeTimeout rather than the client's request timeout. A probe
// is never retried: its answer is the state of the endpoint now.
func (c *Client) Ready(ctx context.Context) error {
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, DefaultProbeTimeout)
		defer cancel()
	}
	return c.do(ctx, http.MethodGet, "/v1/readyz", nil, false, nil)
}

// ModelVersion fetches the content hash of the named model's canonical
// (float64) snapshot encoding — the identifier the cluster router uses
// to detect replica divergence without transferring snapshot bytes.
func (c *Client) ModelVersion(ctx context.Context, name string) (string, error) {
	var out VersionResponse
	if err := c.do(ctx, http.MethodGet, modelPath(name, "version"), nil, true, &out); err != nil {
		return "", err
	}
	return out.Version, nil
}

// ClusterStatus fetches a cluster router's membership, health, and
// replication view. Against a plain (non-router) server it returns a
// 404 ServerError.
func (c *Client) ClusterStatus(ctx context.Context) (*ClusterStatusResponse, error) {
	var out ClusterStatusResponse
	if err := c.do(ctx, http.MethodGet, "/v1/cluster", nil, true, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// DeviceState downloads a device's cache state (model + frequency
// tracker) in snapshot wire format. Idempotent: reading state does not
// disturb it, so the fetch is retried under the client's policy.
func (c *Client) DeviceState(ctx context.Context, device string) ([]byte, error) {
	var raw []byte
	if err := c.do(ctx, http.MethodGet, devicePath(device, "state"), nil, true, &raw); err != nil {
		return nil, err
	}
	return raw, nil
}

// PutDeviceState installs a migrated device cache state (a payload from
// DeviceState). Not retried: an ambiguous failure mid-handoff must
// surface to the caller, which decides whether re-sending the same
// state is safe (it is — import replaces — but the handoff protocol
// owns that decision).
func (c *Client) PutDeviceState(ctx context.Context, device string, raw []byte) error {
	return c.do(ctx, http.MethodPut, devicePath(device, "state"), raw, false, nil)
}

// AddClusterNode asks a cluster router to admit a new replica at base:
// the router syncs every stored snapshot to it and then adds it to the
// hash ring. Not retried (membership changes are not idempotent).
func (c *Client) AddClusterNode(ctx context.Context, base string) (*MembershipResponse, error) {
	var out MembershipResponse
	if err := c.do(ctx, http.MethodPost, "/v1/cluster/nodes", AddNodeRequest{Base: base}, false, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// RemoveClusterNode force-removes a replica from a cluster router
// without migrating its device trackers — the unplanned-loss path, used
// when the node is already dead. Devices pinned to it restart cold;
// the response counts the forfeited trackers. Use DrainClusterNode for
// a planned removal.
func (c *Client) RemoveClusterNode(ctx context.Context, base string) (*MembershipResponse, error) {
	var out MembershipResponse
	if err := c.do(ctx, http.MethodDelete, "/v1/cluster/nodes/"+url.PathEscape(base), nil, false, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// DrainClusterNode asks a cluster router to drain the replica at base:
// the node leaves the pick set, every device tracker it owns is
// migrated to the device's new rendezvous owner, and only then is the
// node removed from membership. Not retried.
func (c *Client) DrainClusterNode(ctx context.Context, base string) (*DrainResponse, error) {
	var out DrainResponse
	path := "/v1/cluster/nodes/" + url.PathEscape(base) + "/drain"
	if err := c.do(ctx, http.MethodPost, path, struct{}{}, false, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Healthy probes the server; like Ready, it is never retried.
func (c *Client) Healthy(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/v1/healthz", nil, false, nil)
}

// serverError builds the typed error for a non-OK response, capturing
// the Retry-After hint and the JSON error body when present.
func serverError(resp *http.Response) *ServerError {
	se := &ServerError{Status: resp.StatusCode, RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After"))}
	var e ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err == nil {
		se.Msg = e.Error
	}
	return se
}

// parseRetryAfter reads a Retry-After header as the whole positive
// seconds Eugene's servers send. Anything else — empty, zero, negative,
// not a plain decimal, more seconds than a time.Duration holds, or the
// header's HTTP-date form — is no hint (0).
func parseRetryAfter(v string) time.Duration {
	for _, c := range []byte(v) {
		if c < '0' || c > '9' {
			return 0
		}
	}
	secs, err := strconv.ParseInt(v, 10, 64)
	if err != nil || secs <= 0 || secs > math.MaxInt64/int64(time.Second) {
		return 0
	}
	return time.Duration(secs) * time.Second
}
