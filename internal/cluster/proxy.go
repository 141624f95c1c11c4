package cluster

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"eugene/internal/failpoint"
	"eugene/internal/service"
)

// routes registers the router's HTTP surface: the full replica /v1 API
// plus the cluster status endpoint.
func (r *Router) routes() {
	r.mux = http.NewServeMux()
	r.mux.HandleFunc("GET /v1/healthz", r.handleHealthz)
	r.mux.HandleFunc("GET /v1/readyz", r.handleReadyz)
	r.mux.HandleFunc("GET /v1/cluster", r.handleCluster)

	// Membership admin. The node id path segment is the
	// url.PathEscape'd base URL. No authentication — deploy the admin
	// surface behind the same trust boundary as the replicas themselves
	// (see README, Cluster section).
	r.mux.HandleFunc("POST /v1/cluster/nodes", r.handleNodeAdd)
	r.mux.HandleFunc("DELETE /v1/cluster/nodes/{id}", r.handleNodeRemove)
	r.mux.HandleFunc("POST /v1/cluster/nodes/{id}/drain", r.handleNodeDrain)
	r.mux.HandleFunc("GET /v1/stats", r.handleStats)
	r.mux.HandleFunc("GET /v1/models", r.handleModels)

	// Model mutations run on the model's rendezvous primary; train,
	// calibrate, and predictor change the snapshot, so the router pulls
	// the result and replicates it to the rest of the fleet.
	r.mux.HandleFunc("POST /v1/models/{name}/train", r.mutateModel(true))
	r.mux.HandleFunc("POST /v1/models/{name}/calibrate", r.mutateModel(true))
	r.mux.HandleFunc("POST /v1/models/{name}/predictor", r.mutateModel(true))
	// Reduce computes a subset model from the primary's retained
	// training data; it does not change the served model.
	r.mux.HandleFunc("POST /v1/models/{name}/reduce", r.mutateModel(false))

	r.mux.HandleFunc("POST /v1/models/{name}/infer", r.handleInfer(service.MaxInferBody))
	r.mux.HandleFunc("POST /v1/models/{name}/infer-batch", r.handleInfer(service.MaxBatchBody))

	r.mux.HandleFunc("GET /v1/models/{name}/snapshot", r.handleSnapshotGet)
	r.mux.HandleFunc("PUT /v1/models/{name}/snapshot", r.handleSnapshotPut)
	r.mux.HandleFunc("GET /v1/models/{name}/version", r.handleVersion)

	// Device state (frequency trackers, subset-model caches) is
	// node-local by design: all device traffic pins to the device's
	// rendezvous owner and never fails over — replaying an observation
	// would double-count it, and no other node has the tracker anyway.
	r.mux.HandleFunc("POST /v1/devices/{id}/observe", r.pinnedDevice(service.MaxObserveBody))
	r.mux.HandleFunc("GET /v1/devices/{id}/cache-decision", r.pinnedDevice(0))
	r.mux.HandleFunc("GET /v1/devices/{id}/subset-model", r.pinnedDevice(0))
	r.mux.HandleFunc("GET /v1/devices/{id}/state", r.pinnedDevice(0))
	r.mux.HandleFunc("PUT /v1/devices/{id}/state", r.pinnedDevice(service.MaxDeviceStateBody))
}

// ServeHTTP implements http.Handler.
func (r *Router) ServeHTTP(w http.ResponseWriter, req *http.Request) { r.mux.ServeHTTP(w, req) }

func (r *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	service.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz: the router is ready while it is not draining and at
// least one replica is healthy — a fleet with zero healthy nodes
// cannot serve, and upstream load balancers should know.
func (r *Router) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if r.draining.Load() {
		service.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	if len(r.healthyNodes()) == 0 {
		service.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "no healthy replicas"})
		return
	}
	service.WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

func (r *Router) handleCluster(w http.ResponseWriter, _ *http.Request) {
	service.WriteJSON(w, http.StatusOK, r.Status())
}

// membershipStatus maps a membership error to its admin-API status.
func membershipStatus(err error) int {
	switch {
	case errors.Is(err, errNotMember):
		return http.StatusNotFound
	case errors.Is(err, errAlreadyMember),
		errors.Is(err, errLastNode),
		errors.Is(err, errMembershipBusy):
		return http.StatusConflict
	case errors.Is(err, errJoinSync), errors.Is(err, errHandoff):
		return http.StatusBadGateway
	}
	return http.StatusBadRequest
}

func (r *Router) handleNodeAdd(w http.ResponseWriter, req *http.Request) {
	var in service.AddNodeRequest
	if !service.DecodeBody(w, req, service.MaxAdminBody, &in) {
		return
	}
	if err := r.AddNode(req.Context(), in.Base); err != nil {
		service.WriteError(w, membershipStatus(err), err)
		return
	}
	service.WriteJSON(w, http.StatusOK, service.MembershipResponse{Status: "added", Base: in.Base})
}

func (r *Router) handleNodeRemove(w http.ResponseWriter, req *http.Request) {
	base := req.PathValue("id")
	lost, err := r.RemoveNode(base)
	if err != nil {
		service.WriteError(w, membershipStatus(err), err)
		return
	}
	service.WriteJSON(w, http.StatusOK, service.MembershipResponse{Status: "removed", Base: base, LostTrackers: lost})
}

func (r *Router) handleNodeDrain(w http.ResponseWriter, req *http.Request) {
	base := req.PathValue("id")
	devices, handoffs, err := r.DrainNode(req.Context(), base)
	if err != nil {
		service.WriteError(w, membershipStatus(err), err)
		return
	}
	service.WriteJSON(w, http.StatusOK, service.DrainResponse{Base: base, Devices: devices, Handoffs: handoffs})
}

// handleStats aggregates /v1/stats across healthy replicas: counters
// sum, queue depths sum, percentiles take the fleet-wide worst (the
// tail a client can actually hit), degrade level takes the max.
func (r *Router) handleStats(w http.ResponseWriter, req *http.Request) {
	out := service.StatsResponse{Models: make(map[string]service.ModelStats)}
	for _, n := range r.healthyNodes() {
		stats, err := n.client.Stats(req.Context())
		if err != nil {
			continue
		}
		for name, st := range stats {
			agg := out.Models[name]
			agg.Submitted += st.Submitted
			agg.Answered += st.Answered
			agg.Expired += st.Expired
			agg.Unanswered += st.Unanswered
			agg.Rejected += st.Rejected
			agg.Goodput += st.Goodput
			agg.QueueDepth += st.QueueDepth
			agg.DegradeLevel = max(agg.DegradeLevel, st.DegradeLevel)
			agg.P50MS = max(agg.P50MS, st.P50MS)
			agg.P99MS = max(agg.P99MS, st.P99MS)
			out.Models[name] = agg
		}
	}
	service.WriteJSON(w, http.StatusOK, out)
}

// handleModels returns the union of the router store and every healthy
// replica's registry.
func (r *Router) handleModels(w http.ResponseWriter, req *http.Request) {
	names := make(map[string]bool)
	for name := range r.store.versions() {
		names[name] = true
	}
	for _, n := range r.healthyNodes() {
		models, err := n.client.Models(req.Context())
		if err != nil {
			continue
		}
		for _, m := range models {
			names[m] = true
		}
	}
	out := make([]string, 0, len(names))
	for n := range names {
		out = append(out, n)
	}
	service.WriteJSON(w, http.StatusOK, map[string][]string{"models": out})
}

func (r *Router) handleVersion(w http.ResponseWriter, req *http.Request) {
	name := req.PathValue("name")
	if _, version, ok := r.store.get(name); ok {
		service.WriteJSON(w, http.StatusOK, service.VersionResponse{Version: version})
		return
	}
	service.WriteError(w, http.StatusNotFound, fmt.Errorf("cluster: unknown model %q", name))
}

// handleSnapshotGet serves the stored snapshot directly; a model the
// store has not (yet) adopted falls back to a failover-safe fetch from
// the fleet.
func (r *Router) handleSnapshotGet(w http.ResponseWriter, req *http.Request) {
	name := req.PathValue("name")
	if req.URL.Query().Get("precision") == "" {
		if raw, _, ok := r.store.get(name); ok {
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set("Content-Length", strconv.Itoa(len(raw)))
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write(raw)
			return
		}
	}
	r.forward(w, req, route{failover: true})
}

func (r *Router) handleSnapshotPut(w http.ResponseWriter, req *http.Request) {
	raw, ok := service.ReadBody(w, req, service.MaxSnapshotBody, nil)
	if !ok {
		return
	}
	version, installed, err := r.installSnapshot(req.Context(), req.PathValue("name"), raw)
	if err != nil {
		service.WriteError(w, http.StatusBadRequest, err)
		return
	}
	// String values only: the client decodes this as map[string]string.
	service.WriteJSON(w, http.StatusOK, map[string]string{
		"status": "ok", "version": version,
		"installed": strconv.Itoa(installed),
	})
}

// mutateModel proxies a model mutation to its rendezvous primary (no
// failover: replaying a train on an ambiguous failure would train
// twice). When the mutation changes the snapshot, the router pulls the
// primary's new bundle into the store and replicates it.
func (r *Router) mutateModel(replicates bool) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		name := req.PathValue("name")
		n, status := r.forward(w, req, route{key: "model/" + name, maxBody: service.MaxTrainBody})
		if n == nil || status != http.StatusOK || !replicates {
			return
		}
		// Pull the mutated snapshot from the node that just produced it
		// and fan it out. Failure here leaves the fleet temporarily
		// divergent — the primary serves the new version, the rest the
		// old — which reconcile/sync repairs; the client's mutation
		// still succeeded.
		pctx, cancel := context.WithTimeout(context.Background(), attemptTimeout)
		defer cancel()
		raw, err := n.client.Snapshot(pctx, name, "")
		if err != nil {
			r.cfg.Logf("cluster: pulling %q after mutation from %s: %v", name, n.base, err)
			return
		}
		version, _, err := r.store.set(name, raw)
		if err != nil {
			r.cfg.Logf("cluster: adopting %q after mutation: %v", name, err)
			return
		}
		n.setInstalled(name, version)
		r.kickSync()
	}
}

// handleInfer routes inference: device-tagged requests pin to the
// device's rendezvous owner (tracker state is node-local, and the
// observation side effect must not be replayed), anonymous requests
// load-balance by least-outstanding and fail over freely — inference
// without a device tag is pure compute.
//
// This is the one route whose body the router holds, being the one that
// may have to send it twice: read once into a pooled buffer and looked
// at once, for the top-level device member, by the replica decoder's own
// scanner (service.PeekDevice). A body the replica will refuse is
// forwarded as it came; the replica owns the 400.
func (r *Router) handleInfer(maxBody int64) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		body, ok := service.ReadBodyBuf(w, req, maxBody)
		if !ok {
			return
		}
		rt := route{body: body, failover: true}
		if device := service.PeekDevice(body.B); device != "" {
			rt = route{body: body, key: "dev/" + device}
		}
		r.forward(w, req, rt)
	}
}

// pinnedDevice proxies device-state endpoints to the device's
// rendezvous owner.
func (r *Router) pinnedDevice(maxBody int64) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		r.forward(w, req, route{key: "dev/" + req.PathValue("id"), maxBody: maxBody})
	}
}

// route describes how one request may travel: a non-empty key pins it
// to the key's rendezvous owner; failover permits retrying surviving
// replicas on transient failure (only ever true for requests with no
// side effects).
//
// body, read by the handler, can be sent again and is what a failover
// route carries; forward takes the buffer over and returns it to the pool
// when nothing can still be reading it. Every other route is attempted
// exactly once, so its body is never held: it streams from the client's
// connection to the replica's, capped at maxBody on the way.
type route struct {
	key      string
	failover bool
	body     *service.BodyBuf
	maxBody  int64
}

// forward proxies one request according to rt, returning the node that
// produced the final response (nil if none did) and the status sent.
func (r *Router) forward(w http.ResponseWriter, req *http.Request, rt route) (*node, int) {
	healthy := r.healthyNodes()
	if len(healthy) == 0 {
		service.WriteError(w, http.StatusServiceUnavailable, errors.New("cluster: no healthy replicas"))
		return nil, http.StatusServiceUnavailable
	}

	maxAttempts := 1
	var tried map[*node]bool
	if rt.failover && r.cfg.Retry.MaxAttempts > 1 {
		maxAttempts = r.cfg.Retry.MaxAttempts
		tried = make(map[*node]bool, maxAttempts)
	}
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		var n *node
		if rt.key != "" {
			n = pickPinned(rt.key, healthy)
		} else {
			n = pickLeastOutstanding(healthy, tried)
		}
		if n == nil {
			break // every healthy node already tried
		}
		if tried != nil {
			tried[n] = true
		}
		if attempt > 0 {
			// A failover consumes a router-wide retry token: during a
			// fleet-wide outage the budget empties and failures surface
			// immediately instead of doubling load on the survivors.
			if !r.failoverBudget.Take(r.cfg.Retry.Budget) {
				break
			}
			r.failovers.Add(1)
		}
		status, err := r.attempt(w, req, n, rt, attempt > 0)
		if err == nil {
			// A 200 means the replica read the whole request before it
			// answered; after anything else — an earlier attempt that
			// failed, an answer sent without reading — a transport's write
			// loop may still hold the bytes, and the buffer is dropped.
			if rt.body != nil && attempt == 0 && status == http.StatusOK {
				rt.body.Release()
			}
			return n, status
		}
		if errors.Is(err, errClient) {
			// Its upload outgrew the route's cap or stopped short, or it
			// hung up: not the node's fault, and no failed attempt.
			service.WriteBodyError(w, "reading request", err)
			return nil, http.StatusBadRequest
		}
		lastErr = err
		if n.health.onFailure(err) {
			r.cfg.Logf("cluster: ejected %s: %v", n.base, err)
		}
		// Recompute the healthy set: the failure may just have ejected
		// the node, and a pinned key would otherwise re-pick it forever.
		if healthy = r.healthyNodes(); len(healthy) == 0 {
			break
		}
	}
	if lastErr == nil {
		lastErr = errors.New("cluster: no replica available")
	}
	if !rt.failover {
		r.pinnedFailures.Add(1)
	}
	service.WriteError(w, http.StatusBadGateway, fmt.Errorf("cluster: forwarding failed: %w", lastErr))
	return nil, http.StatusBadGateway
}

// attempt sends the request once to node n and, when n answers with
// anything it means, streams that answer to w and returns its status. A
// transport failure, a gateway-transient status (502/503/504), or an
// injected proxy fault returns an error with nothing written to w (the
// caller decides on failover); every other response — including 429 and
// definitive 4xx/5xx — is relayed.
func (r *Router) attempt(w http.ResponseWriter, req *http.Request, n *node, rt route, failedOver bool) (int, error) {
	// Chaos seam: a fault here models the router losing the replica
	// between routing decision and dispatch (connection reset on a just
	// killed process) — exactly the window failover exists for.
	if err := failpoint.Inject("cluster.proxy.forward"); err != nil {
		return 0, err
	}
	ctx := req.Context()
	if rt.failover {
		// Failover-safe routes get a per-attempt deadline so one hung
		// replica costs O(attemptTimeout), not the client's patience;
		// pinned and mutating routes (training runs minutes) keep the
		// caller's context untouched.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, attemptTimeout)
		defer cancel()
	}
	var body io.Reader
	var upload *sideReader
	switch {
	case rt.body != nil:
		body = bytes.NewReader(rt.body.B)
	case req.ContentLength != 0 && req.Method != http.MethodGet:
		upload = &sideReader{r: http.MaxBytesReader(w, req.Body, rt.maxBody)}
		body = upload
	}
	out, err := http.NewRequestWithContext(ctx, req.Method, n.base+req.URL.RequestURI(), body)
	if err != nil {
		return 0, err
	}
	if rt.body == nil {
		out.ContentLength = req.ContentLength
	}
	if ct := req.Header.Get("Content-Type"); ct != "" {
		out.Header.Set("Content-Type", ct)
	}
	r.proxied.Add(1)
	n.outstanding.Add(1)
	defer n.outstanding.Add(-1)
	resp, err := r.proxy.Do(out)
	if err != nil {
		if cerr := cmp.Or(upload.failure(), req.Context().Err()); cerr != nil {
			err = fmt.Errorf("%w: %w", errClient, cerr)
		}
		return 0, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		// Transient per the client's own retryable() taxonomy: the
		// replica is draining, mid-restart, or faulted at a seam. Let
		// the caller fail over instead of relaying.
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10)) // enough for the error text
		return 0, &service.ServerError{Status: resp.StatusCode, Msg: string(msg)}
	}
	// A response arrived: the node is alive, whatever the status.
	n.health.onSuccess()
	if failedOver {
		r.failoverBudget.Credit(r.cfg.Retry.Budget)
	}
	if dev, ok := strings.CutPrefix(rt.key, "dev/"); ok && resp.StatusCode < 400 {
		// The node answered for this device, so its tracker (and the
		// observation the request may have carried) lives there now.
		r.recordOwner(dev, n.base)
	}
	r.relay(w, n, resp)
	return resp.StatusCode, nil
}

// relay streams a replica's response to the client: status,
// Content-Type and Content-Length as they came, the body copied through
// a pooled buffer and never held. Retry-After on a 429 is rewritten with
// the node's adaptive drain floor: the scheduler's hint is clamped to
// [10ms, 2s] by design, but the router has watched the node's /v1/stats
// and knows how long its actual backlog needs — retrying sooner than
// that is guaranteed to meet the same full queue. The larger of hint
// and floor wins; the router never invites a retry earlier than the
// replica asked for.
func (r *Router) relay(w http.ResponseWriter, n *node, resp *http.Response) {
	h := w.Header()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		h.Set("Content-Type", ct)
	}
	retryAfter := resp.Header.Get("Retry-After")
	if resp.StatusCode == http.StatusTooManyRequests {
		secs, _ := strconv.ParseInt(retryAfter, 10, 64)
		if floor := n.drain.Floor(); floor > 0 {
			secs = max(secs, int64((floor+time.Second-1)/time.Second))
		}
		retryAfter = ""
		if secs > 0 {
			retryAfter = strconv.FormatInt(secs, 10)
		}
	}
	if retryAfter != "" {
		h.Set("Retry-After", retryAfter)
	}
	if resp.ContentLength >= 0 {
		h.Set("Content-Length", strconv.FormatInt(resp.ContentLength, 10))
	}
	w.WriteHeader(resp.StatusCode)
	// Once the status is out there is no failing over: a replica lost
	// mid-body leaves the response short of its Content-Length, which the
	// server turns into a closed connection and the client's transport
	// into an error.
	chunk := relayChunks.Get().(*[]byte)
	body := &sideReader{r: resp.Body}
	// The bare Writer has no ReadFrom, so the copy goes through chunk.
	_, _ = io.CopyBuffer(struct{ io.Writer }{w}, body, *chunk)
	relayChunks.Put(chunk)
	if err := body.failure(); err != nil { // a client that left is not worth a line
		r.cfg.Logf("cluster: relaying %s's response: %v", n.base, err)
	}
}

var relayChunks = sync.Pool{New: func() any { b := make([]byte, 32<<10); return &b }}

// sideReader keeps the error its side of a copy failed with, which the
// copier reports without saying whose it was: the transport returns a
// client's failed upload as its own error, io.Copy a replica's short
// response like a client's closed connection. Atomic because a transport
// may still be reading a request body after Do has returned.
type sideReader struct {
	r   io.Reader
	err atomic.Pointer[error]
}

func (s *sideReader) Read(p []byte) (int, error) {
	n, err := s.r.Read(p)
	if err != nil && err != io.EOF {
		s.err.Store(&err)
	}
	return n, err
}

// failure returns what reading failed with; nil also for a nil receiver.
func (s *sideReader) failure() error {
	if s == nil || s.err.Load() == nil {
		return nil
	}
	return *s.err.Load()
}

// errClient marks an attempt that failed on the client's side.
var errClient = errors.New("client")
