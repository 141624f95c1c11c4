package cluster

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"eugene/internal/service"
)

// Config shapes a Router. Only Nodes is required.
type Config struct {
	// Nodes lists the replica base URLs, e.g.
	// ["http://10.0.0.1:8080", "http://10.0.0.2:8080"]. The URL is the
	// node's identity in the rendezvous ring, so keep it stable across
	// router restarts — identical config reproduces identical
	// device→node assignment.
	Nodes []string
	// ProbeInterval is the active /v1/readyz health-check cadence
	// (0 = 500ms). Each probe's timeout derives from the interval (half
	// of it, at least 50ms), so a hung node is detected in O(probe
	// interval), not O(request timeout).
	ProbeInterval time.Duration
	// FailThreshold ejects a node after this many consecutive
	// probe/request failures (0 = 3).
	FailThreshold int
	// SyncInterval is the snapshot-replication reconcile cadence
	// (0 = 2s). Divergent nodes are also re-pushed immediately when a
	// new snapshot version lands.
	SyncInterval time.Duration
	// Retry bounds request failover: MaxAttempts caps how many replicas
	// one idempotent request may try, and Budget is the shared
	// router-wide failover token bucket (the PR 7 retry budget — a dead
	// fleet must not amplify load onto its survivors). nil =
	// service.DefaultRetryPolicy.
	Retry *service.RetryPolicy
	// Logf receives operational events (ejections, reinstatements,
	// replication failures); nil uses log.Printf.
	Logf func(format string, args ...any)
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.ProbeInterval <= 0 {
		out.ProbeInterval = 500 * time.Millisecond
	}
	if out.FailThreshold <= 0 {
		out.FailThreshold = 3
	}
	if out.SyncInterval <= 0 {
		out.SyncInterval = 2 * time.Second
	}
	if out.Retry == nil {
		out.Retry = service.DefaultRetryPolicy()
	}
	if out.Logf == nil {
		out.Logf = log.Printf
	}
	return out
}

const (
	// reinstateThreshold readmits an ejected node after this many
	// consecutive half-open probe successes.
	reinstateThreshold = 2
	// attemptTimeout bounds one forwarded attempt on failover-safe
	// routes, so a hung replica surfaces as a failed attempt (and a
	// passive health signal) instead of hanging the client for its full
	// request timeout. Mutating and device-pinned routes are exempt:
	// training legitimately runs for minutes and has exactly one legal
	// destination.
	attemptTimeout = 15 * time.Second
)

// probeTimeout derives the per-probe deadline from the probe cadence:
// half the interval, floored at 50ms so very tight test cadences still
// permit a loopback round trip.
func (c Config) probeTimeout() time.Duration {
	d := c.ProbeInterval / 2
	if d < 50*time.Millisecond {
		d = 50 * time.Millisecond
	}
	return d
}

// node is one replica as the router sees it.
type node struct {
	base   string
	client *service.Client
	health *health
	// outstanding counts proxied requests currently in flight — the
	// least-outstanding load-balancing signal for non-device traffic.
	outstanding atomic.Int64
	// drain estimates the node's backlog drain rate from its /v1/stats
	// counters (polled by the prober); 429s propagated from the node
	// carry a Retry-After floored by this estimate.
	drain *drainEstimator
	// draining marks a planned drain in progress: the node leaves the
	// pick set (healthyNodes skips it) but stays directly reachable so
	// the router can export its device trackers.
	draining atomic.Bool

	mu sync.Mutex
	// installed maps model → snapshot version the router last confirmed
	// on this node (via push or reconcile).
	installed map[string]string
}

func (n *node) installedVersion(model string) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.installed[model]
}

func (n *node) setInstalled(model, version string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.installed[model] = version
}

// clearInstalled forgets everything the router believed about this
// node's models. Called on reinstatement: the node may be a restarted
// process with an empty registry, and a stale installed map would make
// the sync loop skip exactly the pushes the node now needs.
func (n *node) clearInstalled() {
	n.mu.Lock()
	defer n.mu.Unlock()
	clear(n.installed)
}

func (n *node) installedCopy() map[string]string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[string]string, len(n.installed))
	for k, v := range n.installed {
		out[k] = v
	}
	return out
}

// Router fronts a replica fleet with the full /v1 API surface plus
// GET /v1/cluster and the membership admin endpoints. It implements
// http.Handler; run Start before serving and Close when done.
//
// recordOwner consults node drain flags while holding the device-owner
// map lock:
//
//eugene:lockorder Router.devMu before Router.nodesMu
type Router struct {
	cfg   Config
	store *store
	mux   *http.ServeMux
	proxy *http.Client

	// nodesMu guards the membership slice. The slice is copy-on-write:
	// mutators build a new slice and swap it under the write lock, so
	// readers take nodeList's reference and iterate without holding
	// anything. Critical sections touch only the slice header — no I/O,
	// no other locks (besides the declared devMu nesting above).
	nodesMu sync.RWMutex
	nodes   []*node

	// memberBusy serializes membership operations (add/remove/drain)
	// without holding a lock across their network calls: a second
	// concurrent operation is refused, not queued.
	memberBusy atomic.Bool

	// devMu guards deviceOwners: device id → base URL of the node whose
	// tracker holds the device's observation history. Recorded on every
	// successfully forwarded device-pinned request; consulted on drain
	// to know which trackers must migrate.
	devMu        sync.Mutex
	deviceOwners map[string]string

	// failoverBudget is the shared token bucket bounding how many
	// failover attempts the whole router may spend (see Config.Retry).
	failoverBudget service.RetryBudget

	// syncKick wakes the replication loop early (new snapshot version,
	// node reinstated).
	syncKick chan struct{}
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	draining atomic.Bool

	// Counters for /v1/cluster.
	proxied        atomic.Uint64
	failovers      atomic.Uint64
	pinnedFailures atomic.Uint64
	handoffs       atomic.Uint64
	drains         atomic.Uint64
	lostTrackers   atomic.Uint64
}

// New builds a Router over the configured replica set.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("cluster: no replica nodes configured")
	}
	seen := make(map[string]bool, len(cfg.Nodes))
	r := &Router{
		cfg:          cfg,
		store:        newStore(),
		proxy:        &http.Client{Transport: newProxyTransport()},
		syncKick:     make(chan struct{}, 1),
		stop:         make(chan struct{}),
		deviceOwners: make(map[string]string),
	}
	for _, base := range cfg.Nodes {
		if base == "" || seen[base] {
			return nil, fmt.Errorf("cluster: empty or duplicate node %q", base)
		}
		seen[base] = true
		r.nodes = append(r.nodes, cfg.newNode(base))
	}
	r.routes()
	return r, nil
}

// newNode builds the router-side representation of one replica.
func (c Config) newNode(base string) *node {
	return &node{
		base:      base,
		client:    service.NewClient(base),
		health:    newHealth(c.FailThreshold, reinstateThreshold),
		drain:     &drainEstimator{},
		installed: make(map[string]string),
	}
}

// newProxyTransport pools connections per replica: the router holds one
// long-lived connection set to each node instead of redialing per
// forwarded request. The write buffer is service.Client's, for its
// reason: a batch's headers and body leave in one write.
func newProxyTransport() *http.Transport {
	t, ok := http.DefaultTransport.(*http.Transport)
	if !ok {
		return &http.Transport{MaxIdleConnsPerHost: 64}
	}
	t = t.Clone()
	t.MaxIdleConns = 256
	t.MaxIdleConnsPerHost = 64
	t.WriteBufferSize = 64 << 10
	return t
}

// Start reconciles state with the replicas (re-discovering models a
// restarted router has no memory of) and launches the health prober
// and replication loop.
func (r *Router) Start(ctx context.Context) {
	r.reconcile(ctx)
	r.wg.Add(2)
	go r.probeLoop()
	go r.syncLoop()
}

// Close stops the background loops. In-flight proxied requests finish
// on their own contexts.
func (r *Router) Close() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.wg.Wait()
}

// SetDraining flips the router's own /v1/readyz to 503 (process
// shutdown); replica health is unaffected.
func (r *Router) SetDraining(v bool) { r.draining.Store(v) }

// nodeList returns the current membership slice. The slice is
// copy-on-write (mutators swap a fresh slice under nodesMu), so the
// returned reference is safe to iterate without a lock; it is a
// point-in-time view that a concurrent add/remove does not disturb.
func (r *Router) nodeList() []*node {
	r.nodesMu.RLock()
	defer r.nodesMu.RUnlock()
	return r.nodes
}

// healthyNodes returns the nodes currently receiving traffic, in
// membership order. Draining nodes are excluded: a drain's first step
// is taking the node out of the pick set so pinned traffic lands on
// each device's next owner.
func (r *Router) healthyNodes() []*node {
	nodes := r.nodeList()
	out := make([]*node, 0, len(nodes))
	for _, n := range nodes {
		if n.health.healthy() && !n.draining.Load() {
			out = append(out, n)
		}
	}
	return out
}

// pickPinned returns the rendezvous owner of key among healthy nodes.
func pickPinned(key string, nodes []*node) *node {
	byBase := make(map[string]*node, len(nodes))
	bases := make([]string, 0, len(nodes))
	for _, n := range nodes {
		byBase[n.base] = n
		bases = append(bases, n.base)
	}
	return byBase[Pick(key, bases)]
}

// pickLeastOutstanding returns the healthy node with the fewest
// requests in flight (ties break toward config order), excluding
// already-tried nodes.
func pickLeastOutstanding(nodes []*node, tried map[*node]bool) *node {
	var best *node
	var bestLoad int64
	for _, n := range nodes {
		if tried[n] {
			continue
		}
		load := n.outstanding.Load()
		if best == nil || load < bestLoad {
			best, bestLoad = n, load
		}
	}
	return best
}

// probeLoop actively health-checks every node on the probe cadence and
// polls healthy nodes' stats for drain estimation. Probes run
// concurrently per node so one hung replica cannot delay detection on
// the others.
func (r *Router) probeLoop() {
	defer r.wg.Done()
	ticker := time.NewTicker(r.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-ticker.C:
		}
		var wg sync.WaitGroup
		for _, n := range r.nodeList() {
			wg.Add(1)
			go func(n *node) {
				defer wg.Done()
				r.probeOne(n)
			}(n)
		}
		wg.Wait()
	}
}

// probeOne runs one readiness probe (and, for healthy nodes, a stats
// poll) against a node, feeding the failure detector.
func (r *Router) probeOne(n *node) {
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.probeTimeout())
	defer cancel()
	if err := n.client.Ready(ctx); err != nil {
		if n.health.onFailure(err) {
			r.cfg.Logf("cluster: ejected %s: %v", n.base, err)
		}
		return
	}
	if n.health.onSuccess() {
		r.cfg.Logf("cluster: reinstated %s", n.base)
		// The node may be a restarted process with an empty registry:
		// drop every belief about what it has installed, re-learn what it
		// actually reports, and let the sync loop push the difference. A
		// node that merely flapped answers with current versions and gets
		// no redundant pushes.
		n.clearInstalled()
		r.refreshInstalled(n)
		r.kickSync()
	}
	if stats, err := n.client.Stats(ctx); err == nil {
		n.drain.Observe(stats)
	}
}

func (r *Router) kickSync() {
	select {
	case r.syncKick <- struct{}{}:
	default:
	}
}

// Status reports membership, health, replication, and traffic counters
// (the GET /v1/cluster payload).
func (r *Router) Status() service.ClusterStatusResponse {
	out := service.ClusterStatusResponse{
		Models:         r.store.versions(),
		Proxied:        r.proxied.Load(),
		Failovers:      r.failovers.Load(),
		PinnedFailures: r.pinnedFailures.Load(),
		Handoffs:       r.handoffs.Load(),
		Drains:         r.drains.Load(),
		LostTrackers:   r.lostTrackers.Load(),
	}
	for _, n := range r.nodeList() {
		healthy, fails, ejections, lastErr := n.health.snapshot()
		out.Nodes = append(out.Nodes, service.ClusterNodeStatus{
			Base:                n.base,
			Healthy:             healthy,
			ConsecutiveFailures: fails,
			Ejections:           ejections,
			Outstanding:         n.outstanding.Load(),
			Installed:           n.installedCopy(),
			LastError:           lastErr,
			Draining:            n.draining.Load(),
		})
	}
	sort.Slice(out.Nodes, func(i, j int) bool { return out.Nodes[i].Base < out.Nodes[j].Base })
	return out
}
