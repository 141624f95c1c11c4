package cluster

import (
	"context"
	"fmt"
	"sync"
	"time"

	"eugene/internal/failpoint"
	"eugene/internal/snapshot"
)

// store is the router's snapshot source of truth: the canonical
// float64 encoding of every model the cluster serves, keyed by name,
// each with its content version. Replicas whose installed version
// differs are divergent and get re-pushed by the sync loop.
type storeEntry struct {
	raw     []byte
	version string
}

// The store is the router's source of truth, so replication paths read
// it first and then touch per-node install state: store.mu nests
// outside node.mu (enforced by the locks analyzer).
//
//eugene:lockorder store.mu before node.mu
type store struct {
	mu     sync.Mutex
	models map[string]storeEntry
}

func newStore() *store {
	return &store{models: make(map[string]storeEntry)}
}

// set normalizes raw to the canonical float64 encoding (validating it
// in the process — a corrupt snapshot is rejected at the router, before
// any replica sees it) and records it. Returns the content version and
// whether it changed.
func (s *store) set(name string, raw []byte) (version string, changed bool, err error) {
	snap, err := snapshot.UnmarshalModel(raw)
	if err != nil {
		return "", false, fmt.Errorf("cluster: rejecting snapshot for %q: %w", name, err)
	}
	canonical, err := snapshot.MarshalModel(snap, false)
	if err != nil {
		return "", false, fmt.Errorf("cluster: re-encoding snapshot for %q: %w", name, err)
	}
	version = snapshot.VersionOf(canonical)
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.models[name]; ok && cur.version == version {
		return version, false, nil
	}
	s.models[name] = storeEntry{raw: canonical, version: version}
	return version, true, nil
}

// get returns the stored snapshot bytes and version for a model.
func (s *store) get(name string) ([]byte, string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.models[name]
	return e.raw, e.version, ok
}

// versions maps every stored model to its desired version.
func (s *store) versions() map[string]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]string, len(s.models))
	for name, e := range s.models {
		out[name] = e.version
	}
	return out
}

// reconcile rebuilds the router's replication state from the fleet — a
// restarted router has an empty store but the replicas still hold
// models. For every healthy node it lists models and their content
// versions; models the store lacks are adopted from the first
// (config-order) node holding them, and every node's installed map is
// primed with what it actually reports, so the first sync pass pushes
// exactly the divergent (node, model) pairs and nothing else.
func (r *Router) reconcile(ctx context.Context) {
	for _, n := range r.nodeList() {
		nctx, cancel := context.WithTimeout(ctx, r.cfg.probeTimeout()+2*time.Second)
		names, err := n.client.Models(nctx)
		if err != nil {
			cancel()
			// Unreachable at boot: passive/active detection will handle
			// it; reconcile runs again via sync when it comes back.
			r.cfg.Logf("cluster: reconcile: %s unreachable: %v", n.base, err)
			continue
		}
		for _, name := range names {
			ver, err := n.client.ModelVersion(nctx, name)
			if err != nil {
				r.cfg.Logf("cluster: reconcile: version of %q on %s: %v", name, n.base, err)
				continue
			}
			n.setInstalled(name, ver)
			if _, _, ok := r.store.get(name); ok {
				continue
			}
			raw, err := n.client.Snapshot(nctx, name, "")
			if err != nil {
				r.cfg.Logf("cluster: reconcile: fetching %q from %s: %v", name, n.base, err)
				continue
			}
			if v, _, err := r.store.set(name, raw); err != nil {
				r.cfg.Logf("cluster: reconcile: %v", err)
			} else {
				r.cfg.Logf("cluster: reconcile: adopted %q@%s from %s", name, v, n.base)
			}
		}
		cancel()
	}
	r.kickSync()
}

// refreshInstalled re-learns one node's actual installed versions (a
// per-node slice of reconcile, run on reinstatement). Best effort: a
// model it cannot verify stays absent from the installed map, which
// the sync loop reads as divergent and re-pushes — the safe direction.
func (r *Router) refreshInstalled(n *node) {
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.probeTimeout()+2*time.Second)
	defer cancel()
	names, err := n.client.Models(ctx)
	if err != nil {
		r.cfg.Logf("cluster: refreshing %s after reinstatement: %v", n.base, err)
		return
	}
	for _, name := range names {
		ver, err := n.client.ModelVersion(ctx, name)
		if err != nil {
			r.cfg.Logf("cluster: version of %q on reinstated %s: %v", name, n.base, err)
			continue
		}
		n.setInstalled(name, ver)
	}
}

// syncLoop converges replicas onto the store: every SyncInterval (or
// immediately on a kick — new version, reinstated node) it pushes the
// stored snapshot to every healthy node whose installed version
// differs. Push failures are logged and retried next pass; the node
// keeps serving its old version meanwhile.
func (r *Router) syncLoop() {
	defer r.wg.Done()
	ticker := time.NewTicker(r.cfg.SyncInterval)
	defer ticker.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-ticker.C:
		case <-r.syncKick:
		}
		r.syncPass(context.Background())
	}
}

// syncPass runs one convergence sweep. Exported to tests via syncNow.
func (r *Router) syncPass(ctx context.Context) {
	for name, want := range r.store.versions() {
		raw, _, ok := r.store.get(name)
		if !ok {
			continue
		}
		for _, n := range r.nodeList() {
			if !n.health.healthy() || n.installedVersion(name) == want {
				continue
			}
			if err := r.pushSnapshot(ctx, n, name, want, raw); err != nil {
				if n.health.onFailure(err) {
					r.cfg.Logf("cluster: ejected %s: %v", n.base, err)
				}
				r.cfg.Logf("cluster: push %q@%s to %s failed (will retry): %v", name, want, n.base, err)
			}
		}
	}
}

// pushSnapshot installs one snapshot version on one node.
func (r *Router) pushSnapshot(ctx context.Context, n *node, name, version string, raw []byte) error {
	// Chaos seam: an injected fault here models a replication-path
	// failure (network partition to one node, replica disk full) — the
	// node must stay divergent-but-serving and the push must retry.
	if err := failpoint.Inject("cluster.replicate.push"); err != nil {
		return err
	}
	pctx, cancel := context.WithTimeout(ctx, attemptTimeout)
	defer cancel()
	if err := n.client.PutSnapshot(pctx, name, raw); err != nil {
		return err
	}
	n.setInstalled(name, version)
	n.health.onSuccess()
	return nil
}

// installSnapshot is the PUT /v1/models/{name}/snapshot entry point:
// store the (validated, canonicalized) snapshot, then push it
// synchronously to the currently healthy replicas so the model serves
// immediately. Per-node failures do not fail the install — the cluster
// stays serving on the nodes that took it, and the sync loop re-pushes
// the rest. Returns the version and how many replicas confirmed it.
func (r *Router) installSnapshot(ctx context.Context, name string, raw []byte) (version string, installed int, err error) {
	version, _, err = r.store.set(name, raw)
	if err != nil {
		return "", 0, err
	}
	canonical, _, _ := r.store.get(name)
	for _, n := range r.nodeList() {
		if !n.health.healthy() {
			continue
		}
		if n.installedVersion(name) == version {
			installed++
			continue
		}
		if err := r.pushSnapshot(ctx, n, name, version, canonical); err != nil {
			if n.health.onFailure(err) {
				r.cfg.Logf("cluster: ejected %s: %v", n.base, err)
			}
			r.cfg.Logf("cluster: install push %q@%s to %s failed (sync will retry): %v", name, version, n.base, err)
			continue
		}
		installed++
	}
	r.kickSync()
	return version, installed, nil
}
