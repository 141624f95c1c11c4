package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"eugene/internal/failpoint"
	"eugene/internal/service"
)

// Membership errors, mapped to admin-API statuses in proxy.go.
var (
	// errNotMember: the named base URL is not in the membership (404).
	errNotMember = errors.New("cluster: node is not a member")
	// errAlreadyMember: an add named an existing member (409).
	errAlreadyMember = errors.New("cluster: node is already a member")
	// errLastNode: removing/draining the last member would leave the
	// router fronting nothing (409).
	errLastNode = errors.New("cluster: refusing to remove the last member")
	// errMembershipBusy: another membership operation is in flight;
	// add/remove/drain serialize rather than interleave (409).
	errMembershipBusy = errors.New("cluster: membership change already in progress")
	// errJoinSync: the joining node failed its pre-admission snapshot
	// sync and was not admitted (502).
	errJoinSync = errors.New("cluster: join sync failed")
	// errHandoff: a drain failed to migrate a device tracker; the node
	// was returned to service with its trackers intact (502).
	errHandoff = errors.New("cluster: device-state handoff failed")
)

// beginMembershipOp claims the single membership-operation slot.
// Serialization by refusal, not queueing: holding a mutex across the
// join sync or the handoff loop (both network-bound) would convoy every
// other admin call behind a slow replica.
func (r *Router) beginMembershipOp() error {
	if !r.memberBusy.CompareAndSwap(false, true) {
		return errMembershipBusy
	}
	return nil
}

func (r *Router) endMembershipOp() { r.memberBusy.Store(false) }

// findNode returns the member with the given base URL, or nil.
func (r *Router) findNode(base string) *node {
	for _, n := range r.nodeList() {
		if n.base == base {
			return n
		}
	}
	return nil
}

// addNodeEntry appends n to the membership (copy-on-write swap).
func (r *Router) addNodeEntry(n *node) {
	r.nodesMu.Lock()
	defer r.nodesMu.Unlock()
	next := make([]*node, 0, len(r.nodes)+1)
	next = append(next, r.nodes...)
	r.nodes = append(next, n)
}

// removeNodeEntry drops the member with the given base URL
// (copy-on-write swap), reporting whether it was present.
func (r *Router) removeNodeEntry(base string) bool {
	r.nodesMu.Lock()
	defer r.nodesMu.Unlock()
	next := make([]*node, 0, len(r.nodes))
	found := false
	for _, n := range r.nodes {
		if n.base == base {
			found = true
			continue
		}
		next = append(next, n)
	}
	if found {
		r.nodes = next
	}
	return found
}

// AddNode admits a new replica at base: probe it, sync every stored
// snapshot onto it, and only then add it to the rendezvous ring. A
// node that cannot be probed or synced never enters the ring — pinned
// devices must not remap onto a replica missing the models they need.
// Rendezvous hashing bounds the remap cost of a successful join to
// ~1/N of devices (see Pick).
func (r *Router) AddNode(ctx context.Context, base string) error {
	base = strings.TrimRight(strings.TrimSpace(base), "/")
	if base == "" {
		return fmt.Errorf("cluster: empty node base URL")
	}
	if err := r.beginMembershipOp(); err != nil {
		return err
	}
	defer r.endMembershipOp()
	if r.findNode(base) != nil {
		return fmt.Errorf("%w: %s", errAlreadyMember, base)
	}
	n := r.cfg.newNode(base)
	// Chaos seam: a fault here models the join-time sync failing
	// (unreachable candidate, partition during the snapshot push) — the
	// candidate must stay out of the ring.
	if err := failpoint.Inject("cluster.membership.join-sync"); err != nil {
		return fmt.Errorf("%w: %v", errJoinSync, err)
	}
	pctx, cancel := context.WithTimeout(ctx, r.cfg.probeTimeout()+2*time.Second)
	err := n.client.Ready(pctx)
	cancel()
	if err != nil {
		return fmt.Errorf("%w: probing %s: %v", errJoinSync, base, err)
	}
	synced := 0
	for name, version := range r.store.versions() {
		raw, _, ok := r.store.get(name)
		if !ok {
			continue
		}
		if err := r.pushSnapshot(ctx, n, name, version, raw); err != nil {
			return fmt.Errorf("%w: pushing %q to %s: %v", errJoinSync, name, base, err)
		}
		synced++
	}
	r.addNodeEntry(n)
	r.kickSync()
	r.cfg.Logf("cluster: added %s (%d snapshots synced before admission)", base, synced)
	return nil
}

// RemoveNode force-removes a member without migrating its device
// trackers — the unplanned-loss path, for a node that is already dead.
// Devices it owned restart cold on their new rendezvous owner; the
// returned count (also added to the lost-trackers counter) is exactly
// how many. Use DrainNode for a planned removal that preserves them.
func (r *Router) RemoveNode(base string) (lost int, err error) {
	if err := r.beginMembershipOp(); err != nil {
		return 0, err
	}
	defer r.endMembershipOp()
	if r.findNode(base) == nil {
		return 0, fmt.Errorf("%w: %s", errNotMember, base)
	}
	if len(r.nodeList()) <= 1 {
		return 0, errLastNode
	}
	r.removeNodeEntry(base)
	lost = r.forgetOwnedDevices(base)
	r.lostTrackers.Add(uint64(lost))
	r.cfg.Logf("cluster: removed %s (%d device trackers lost)", base, lost)
	return lost, nil
}

// DrainNode removes a member gracefully: flip it out of the pick set,
// migrate every device tracker it owns to the device's new rendezvous
// owner, and only then drop it from membership. Any export or install
// failure aborts the drain and returns the node to service — exports
// never disturb the source tracker, so an aborted drain loses nothing.
func (r *Router) DrainNode(ctx context.Context, base string) (devices, handoffs int, err error) {
	if err := r.beginMembershipOp(); err != nil {
		return 0, 0, err
	}
	defer r.endMembershipOp()
	n := r.findNode(base)
	if n == nil {
		return 0, 0, fmt.Errorf("%w: %s", errNotMember, base)
	}
	if len(r.nodeList()) <= 1 {
		return 0, 0, errLastNode
	}
	n.draining.Store(true)
	if len(r.healthyNodes()) == 0 {
		n.draining.Store(false)
		return 0, 0, fmt.Errorf("%w: no healthy replica to receive %s's devices", errHandoff, base)
	}
	owned := r.ownedDevices(base)
	devices = len(owned)
	// moved records each device's destination ("" = tracker absent on
	// the source; just unpin). Ownership flips only after every handoff
	// lands: an aborted drain leaves the map pointing at the source,
	// which still holds every tracker.
	moved := make(map[string]string, len(owned))
	for _, dev := range owned {
		newOwner, herr := r.handoffDevice(ctx, n, dev)
		if herr != nil {
			n.draining.Store(false)
			return devices, handoffs, fmt.Errorf("%w: device %q from %s: %v", errHandoff, dev, base, herr)
		}
		moved[dev] = newOwner
		if newOwner != "" {
			handoffs++
		}
	}
	r.removeNodeEntry(base)
	r.applyMoves(moved)
	r.handoffs.Add(uint64(handoffs))
	r.drains.Add(1)
	r.cfg.Logf("cluster: drained %s (%d devices, %d trackers handed off)", base, devices, handoffs)
	return devices, handoffs, nil
}

// handoffDevice migrates one device's tracker from the draining src to
// the device's new rendezvous owner. Returns the destination base, or
// "" when the source has no tracker for the device (nothing to
// migrate). The export is a read — on any failure the source tracker
// is untouched and the caller aborts the drain.
func (r *Router) handoffDevice(ctx context.Context, src *node, dev string) (string, error) {
	hctx, cancel := context.WithTimeout(ctx, attemptTimeout)
	defer cancel()
	raw, err := src.client.DeviceState(hctx, dev)
	if err != nil {
		var se *service.ServerError
		if errors.As(err, &se) && se.Status == http.StatusNotFound {
			return "", nil // no observations on the source; nothing to carry
		}
		return "", fmt.Errorf("exporting: %v", err)
	}
	target := pickPinned("dev/"+dev, r.healthyNodes())
	if target == nil {
		return "", errors.New("no healthy replica to receive tracker")
	}
	// Chaos seam: a fault here models losing the target mid-handoff —
	// the drain must abort with the source tracker intact.
	if err := failpoint.Inject("cluster.handoff.push"); err != nil {
		return "", err
	}
	if err := target.client.PutDeviceState(hctx, dev, raw); err != nil {
		return "", fmt.Errorf("installing on %s: %v", target.base, err)
	}
	return target.base, nil
}

// recordOwner notes that a device-pinned request succeeded on base,
// tracking which node holds each device's tracker. An ownership change
// outside a drain means the previous owner died (or was removed) with
// the tracker — counted as lost, the honest cost of an unplanned
// topology change. During a drain the pinned pick shifts to the new
// owner while the handoff is still in flight; that transition is the
// drain's to finalize (applyMoves), not a loss.
func (r *Router) recordOwner(device, base string) {
	r.devMu.Lock()
	defer r.devMu.Unlock()
	prev, had := r.deviceOwners[device]
	if had && prev != base {
		if pn := r.findNode(prev); pn != nil && pn.draining.Load() {
			return
		}
		r.lostTrackers.Add(1)
		r.cfg.Logf("cluster: device %q remapped %s -> %s without handoff (tracker lost)", device, prev, base)
	}
	r.deviceOwners[device] = base
}

// ownedDevices lists the devices whose tracker lives on base.
func (r *Router) ownedDevices(base string) []string {
	r.devMu.Lock()
	defer r.devMu.Unlock()
	var out []string
	for dev, owner := range r.deviceOwners {
		if owner == base {
			out = append(out, dev)
		}
	}
	return out
}

// forgetOwnedDevices unpins every device owned by base, returning how
// many there were.
func (r *Router) forgetOwnedDevices(base string) int {
	r.devMu.Lock()
	defer r.devMu.Unlock()
	n := 0
	for dev, owner := range r.deviceOwners {
		if owner == base {
			delete(r.deviceOwners, dev)
			n++
		}
	}
	return n
}

// applyMoves commits a drain's ownership changes: each migrated device
// points at its new owner; devices with nothing to migrate are
// unpinned and re-recorded on their next request.
func (r *Router) applyMoves(moved map[string]string) {
	r.devMu.Lock()
	defer r.devMu.Unlock()
	for dev, owner := range moved {
		if owner == "" {
			delete(r.deviceOwners, dev)
		} else {
			r.deviceOwners[dev] = owner
		}
	}
}
