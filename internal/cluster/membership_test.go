package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eugene/internal/core"
	"eugene/internal/failpoint"
	"eugene/internal/service"
)

// newSpareReplica builds a running replica that is NOT part of any
// fleet — join-candidate material for AddNode tests.
func newSpareReplica(t *testing.T) *testReplica {
	t.Helper()
	svc, err := core.NewService(core.Config{
		Workers: 2, Deadline: time.Second, QueueDepth: 64, Lookahead: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := &testReplica{svc: svc, srv: httptest.NewServer(service.NewServer(svc))}
	t.Cleanup(rep.kill)
	return rep
}

// seedDevices pushes distinct observation histories for n devices
// through the router, returning each device's cache decision. The
// router records which node owns each tracker as a side effect.
func seedDevices(t *testing.T, f *testFleet, n int) map[string]*service.CacheDecisionResponse {
	t.Helper()
	ctx := context.Background()
	out := make(map[string]*service.CacheDecisionResponse, n)
	for i := 0; i < n; i++ {
		dev := fmt.Sprintf("dev-%d", i)
		for class := 0; class < 2; class++ {
			if err := f.cli.Observe(ctx, dev, "m", class, 1+((i+class)%7)*3); err != nil {
				t.Fatalf("seeding %s: %v", dev, err)
			}
		}
		d, err := f.cli.CacheDecision(ctx, dev)
		if err != nil {
			t.Fatalf("decision for %s: %v", dev, err)
		}
		out[dev] = d
	}
	return out
}

// sameDecision compares two cache decisions bitwise — Share and
// Observations are floats whose exact bits must survive a handoff.
func sameDecision(a, b *service.CacheDecisionResponse) bool {
	if a.Model != b.Model || a.Cache != b.Cache || len(a.Hot) != len(b.Hot) ||
		math.Float64bits(a.Share) != math.Float64bits(b.Share) ||
		math.Float64bits(a.Observations) != math.Float64bits(b.Observations) {
		return false
	}
	for i := range a.Hot {
		if a.Hot[i] != b.Hot[i] {
			return false
		}
	}
	return true
}

// busiestOwner returns the member base owning the most seeded devices.
func busiestOwner(r *Router) string {
	best, bestN := "", 0
	for _, n := range r.nodeList() {
		if owned := len(r.ownedDevices(n.base)); owned > bestN {
			best, bestN = n.base, owned
		}
	}
	return best
}

// A joining node must receive every stored snapshot before it enters
// the ring: the instant it is a member, it already serves the model.
func TestAddNodeSyncsSnapshotsBeforeAdmission(t *testing.T) {
	snap, _, input := testSnapshots(t)
	f := newTestFleet(t, 2, nil)
	ctx := context.Background()
	if err := f.cli.PutSnapshot(ctx, "m", snap); err != nil {
		t.Fatal(err)
	}
	want := f.router.store.versions()["m"]

	spare := newSpareReplica(t)
	resp, err := f.cli.AddClusterNode(ctx, spare.srv.URL)
	if err != nil {
		t.Fatalf("AddClusterNode: %v", err)
	}
	if resp.Status != "added" || resp.Base != spare.srv.URL {
		t.Fatalf("unexpected membership response %+v", resp)
	}
	// Membership response arrived ⇒ the sync already happened: ask the
	// new node directly, with no waitFor.
	got, err := service.NewClient(spare.srv.URL).ModelVersion(ctx, "m")
	if err != nil || got != want {
		t.Fatalf("joined node serves %q (err %v); want %q pre-admission", got, err, want)
	}
	st := f.router.Status()
	if len(st.Nodes) != 3 {
		t.Fatalf("membership has %d nodes; want 3", len(st.Nodes))
	}
	if _, err := f.cli.Infer(ctx, "m", input); err != nil {
		t.Fatalf("infer after join: %v", err)
	}

	// Duplicate add: 409.
	var se *service.ServerError
	if _, err := f.cli.AddClusterNode(ctx, spare.srv.URL); !errors.As(err, &se) || se.Status != http.StatusConflict {
		t.Fatalf("duplicate add: got %v; want 409", err)
	}
	// Empty base: 400.
	if _, err := f.cli.AddClusterNode(ctx, "  "); !errors.As(err, &se) || se.Status != http.StatusBadRequest {
		t.Fatalf("empty add: got %v; want 400", err)
	}
}

// A join whose pre-admission sync fails must leave the candidate out of
// the ring entirely; once the fault clears, the same add succeeds.
func TestAddNodeJoinSyncFailureKeepsNodeOut(t *testing.T) {
	snap, _, _ := testSnapshots(t)
	f := newTestFleet(t, 2, nil)
	ctx := context.Background()
	if err := f.cli.PutSnapshot(ctx, "m", snap); err != nil {
		t.Fatal(err)
	}
	spare := newSpareReplica(t)

	if err := failpoint.Enable("cluster.membership.join-sync", "1*error(partition during join)"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disable("cluster.membership.join-sync")

	var se *service.ServerError
	if _, err := f.cli.AddClusterNode(ctx, spare.srv.URL); !errors.As(err, &se) || se.Status != http.StatusBadGateway {
		t.Fatalf("faulted join: got %v; want 502", err)
	}
	if got := len(f.router.Status().Nodes); got != 2 {
		t.Fatalf("failed join changed membership: %d nodes", got)
	}
	// Fault spent: the retried add admits the node.
	if _, err := f.cli.AddClusterNode(ctx, spare.srv.URL); err != nil {
		t.Fatalf("add after fault cleared: %v", err)
	}
	if got := len(f.router.Status().Nodes); got != 3 {
		t.Fatalf("membership has %d nodes after successful join; want 3", got)
	}
}

// Force-removing a node forfeits its device trackers — explicitly
// counted — and refuses to empty the cluster.
func TestRemoveNodeCountsLostTrackers(t *testing.T) {
	snap, _, _ := testSnapshots(t)
	f := newTestFleet(t, 2, nil)
	ctx := context.Background()
	if err := f.cli.PutSnapshot(ctx, "m", snap); err != nil {
		t.Fatal(err)
	}
	seedDevices(t, f, 8)
	victim := busiestOwner(f.router)
	owned := len(f.router.ownedDevices(victim))
	if owned == 0 {
		t.Fatal("no device owner recorded; seeding failed")
	}

	var se *service.ServerError
	if _, err := f.cli.RemoveClusterNode(ctx, "http://nobody:1"); !errors.As(err, &se) || se.Status != http.StatusNotFound {
		t.Fatalf("removing a non-member: got %v; want 404", err)
	}

	resp, err := f.cli.RemoveClusterNode(ctx, victim)
	if err != nil {
		t.Fatalf("RemoveClusterNode: %v", err)
	}
	if resp.LostTrackers != owned {
		t.Fatalf("remove reported %d lost trackers; node owned %d", resp.LostTrackers, owned)
	}
	st := f.router.Status()
	if len(st.Nodes) != 1 {
		t.Fatalf("membership has %d nodes; want 1", len(st.Nodes))
	}
	if st.LostTrackers != uint64(owned) {
		t.Fatalf("status counts %d lost trackers; want %d", st.LostTrackers, owned)
	}

	// The last member is irremovable.
	last := st.Nodes[0].Base
	if _, err := f.cli.RemoveClusterNode(ctx, last); !errors.As(err, &se) || se.Status != http.StatusConflict {
		t.Fatalf("removing the last member: got %v; want 409", err)
	}
}

// The tentpole chaos test: drain a node mid-storm. Every pinned
// device's cache decision must be bitwise identical before and after
// (zero tracker resets), at least one tracker must actually migrate,
// no non-idempotent request may be replayed, and the anonymous infer
// storm must lose nothing.
func TestDrainWithHandoffMidStormPreservesDecisions(t *testing.T) {
	snap, _, input := testSnapshots(t)
	f := newTestFleet(t, 3, nil)
	ctx := context.Background()
	if err := f.cli.PutSnapshot(ctx, "m", snap); err != nil {
		t.Fatal(err)
	}
	before := seedDevices(t, f, 12)
	victim := busiestOwner(f.router)
	if len(f.router.ownedDevices(victim)) == 0 {
		t.Fatal("no owner recorded")
	}

	// Anonymous infer storm running through the whole drain.
	counted := f.counts()
	var failed atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := f.cli.Infer(ctx, "m", input); err != nil {
					failed.Add(1)
					t.Errorf("infer failed mid-drain: %v", err)
				}
			}
		}()
	}

	resp, err := f.cli.DrainClusterNode(ctx, victim)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("DrainClusterNode: %v", err)
	}
	if resp.Handoffs < 1 {
		t.Fatalf("drain performed %d handoffs; want at least 1 (%d devices)", resp.Handoffs, resp.Devices)
	}
	if failed.Load() != 0 {
		t.Fatalf("%d idempotent requests lost during the drain", failed.Load())
	}
	f.assertConserved(t, counted)

	st := f.router.Status()
	if len(st.Nodes) != 2 {
		t.Fatalf("membership has %d nodes after drain; want 2", len(st.Nodes))
	}
	for _, n := range st.Nodes {
		if n.Base == victim {
			t.Fatal("drained node still a member")
		}
	}
	if st.Drains != 1 || st.Handoffs != uint64(resp.Handoffs) {
		t.Fatalf("status drains=%d handoffs=%d; want 1/%d", st.Drains, st.Handoffs, resp.Handoffs)
	}
	if st.LostTrackers != 0 {
		t.Fatalf("a planned drain lost %d trackers; want 0", st.LostTrackers)
	}
	if st.PinnedFailures != 0 {
		t.Fatalf("%d pinned (non-idempotent) requests failed during the drain; want 0", st.PinnedFailures)
	}

	// Every device answers bitwise identically from its new owner.
	for dev, want := range before {
		got, err := f.cli.CacheDecision(ctx, dev)
		if err != nil {
			t.Fatalf("decision for %s after drain: %v", dev, err)
		}
		if !sameDecision(want, got) {
			t.Fatalf("device %s decision changed across drain:\n before %+v\n after  %+v", dev, want, got)
		}
	}
}

// A handoff failing mid-drain must abort the drain with the source
// trackers intact: the node returns to service, nothing is lost, and a
// retried drain succeeds with decisions preserved.
func TestFailedHandoffLeavesSourceIntactThenRetrySucceeds(t *testing.T) {
	snap, _, _ := testSnapshots(t)
	f := newTestFleet(t, 2, nil)
	ctx := context.Background()
	if err := f.cli.PutSnapshot(ctx, "m", snap); err != nil {
		t.Fatal(err)
	}
	before := seedDevices(t, f, 6)
	victim := busiestOwner(f.router)
	ownedBefore := len(f.router.ownedDevices(victim))
	if ownedBefore == 0 {
		t.Fatal("no owner recorded")
	}

	if err := failpoint.Enable("cluster.handoff.push", "1*error(target lost mid-handoff)"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disable("cluster.handoff.push")

	var se *service.ServerError
	if _, err := f.cli.DrainClusterNode(ctx, victim); !errors.As(err, &se) || se.Status != http.StatusBadGateway {
		t.Fatalf("faulted drain: got %v; want 502", err)
	}
	st := f.router.Status()
	if len(st.Nodes) != 2 {
		t.Fatalf("aborted drain changed membership: %d nodes", len(st.Nodes))
	}
	for _, n := range st.Nodes {
		if n.Draining {
			t.Fatalf("node %s stuck draining after an aborted drain", n.Base)
		}
	}
	if st.Drains != 0 {
		t.Fatalf("aborted drain counted as completed (drains=%d)", st.Drains)
	}
	if got := len(f.router.ownedDevices(victim)); got != ownedBefore {
		t.Fatalf("aborted drain changed ownership: %d -> %d devices", ownedBefore, got)
	}
	// Source trackers are untouched: every decision still identical.
	for dev, want := range before {
		got, err := f.cli.CacheDecision(ctx, dev)
		if err != nil {
			t.Fatalf("decision for %s after aborted drain: %v", dev, err)
		}
		if !sameDecision(want, got) {
			t.Fatalf("aborted drain disturbed device %s:\n before %+v\n after  %+v", dev, want, got)
		}
	}

	// Fault spent: the retried drain completes and still preserves
	// every decision.
	resp, err := f.cli.DrainClusterNode(ctx, victim)
	if err != nil {
		t.Fatalf("drain after fault cleared: %v", err)
	}
	if resp.Handoffs < 1 {
		t.Fatalf("retried drain performed no handoffs (devices=%d)", resp.Devices)
	}
	for dev, want := range before {
		got, err := f.cli.CacheDecision(ctx, dev)
		if err != nil {
			t.Fatalf("decision for %s after retried drain: %v", dev, err)
		}
		if !sameDecision(want, got) {
			t.Fatalf("retried drain changed device %s:\n before %+v\n after  %+v", dev, want, got)
		}
	}
}

// Admitting a node mid-storm must lose nothing: requests keep flowing
// while the candidate syncs and joins.
func TestJoinMidStormNoLostRequests(t *testing.T) {
	snap, _, input := testSnapshots(t)
	f := newTestFleet(t, 2, nil)
	ctx := context.Background()
	if err := f.cli.PutSnapshot(ctx, "m", snap); err != nil {
		t.Fatal(err)
	}
	spare := newSpareReplica(t)

	const workers, perWorker = 8, 25
	var failed atomic.Int64
	var joinOnce sync.Once
	var joinErr error
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < perWorker; i++ {
				if _, err := f.cli.Infer(ctx, "m", input); err != nil {
					failed.Add(1)
					t.Errorf("infer failed mid-join: %v", err)
				}
				if i == perWorker/4 {
					joinOnce.Do(func() {
						_, joinErr = f.cli.AddClusterNode(ctx, spare.srv.URL)
					})
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	if joinErr != nil {
		t.Fatalf("join mid-storm: %v", joinErr)
	}
	if failed.Load() != 0 {
		t.Fatalf("%d requests lost during the join", failed.Load())
	}
	if got := len(f.router.Status().Nodes); got != 3 {
		t.Fatalf("membership has %d nodes; want 3", got)
	}
}

// Two routers front the same fleet; killing one mid-storm must lose
// zero idempotent requests — the client's multi-router failover and
// the routers' independent reconcile loops cover the gap.
func TestRouterKillMidStormClientFailsOver(t *testing.T) {
	snap, _, input := testSnapshots(t)
	f := newTestFleet(t, 2, nil)
	ctx := context.Background()
	if err := f.cli.PutSnapshot(ctx, "m", snap); err != nil {
		t.Fatal(err)
	}

	// A second, independent router over the same replicas (it adopts
	// the model by reconciling with the fleet at Start).
	router2, err := New(Config{
		Nodes:         []string{f.replicas[0].srv.URL, f.replicas[1].srv.URL},
		ProbeInterval: 50 * time.Millisecond,
		SyncInterval:  100 * time.Millisecond,
		Retry:         &service.RetryPolicy{MaxAttempts: 4, Budget: 256},
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	router2.Start(ctx)
	defer router2.Close()
	rsrv2 := httptest.NewServer(router2)
	defer rsrv2.Close()

	cli := &service.Client{
		Routers: []string{f.rsrv.URL, rsrv2.URL},
		Retry:   &service.RetryPolicy{MaxAttempts: 6, Budget: 4096},
	}
	if _, err := cli.Infer(ctx, "m", input); err != nil {
		t.Fatalf("warmup infer: %v", err)
	}

	const workers, perWorker = 12, 20
	var failed atomic.Int64
	var killOnce sync.Once
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < perWorker; i++ {
				if _, err := cli.Infer(ctx, "m", input); err != nil {
					failed.Add(1)
					t.Errorf("infer failed after router kill: %v", err)
				}
				if i == perWorker/4 {
					killOnce.Do(func() {
						// kill -9 the first router process.
						f.rsrv.CloseClientConnections()
						f.rsrv.Close()
					})
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	if failed.Load() != 0 {
		t.Fatalf("%d idempotent requests lost when a router died", failed.Load())
	}
}
