package cluster

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eugene/internal/core"
	"eugene/internal/dataset"
	"eugene/internal/failpoint"
	"eugene/internal/service"
	"eugene/internal/tensor"
)

// Two distinct tiny model snapshots, trained once per test binary:
// snapA is the baseline the fleet serves, snapB a newer version for
// divergence/convergence scenarios.
var (
	snapOnce  sync.Once
	snapA     []byte
	snapB     []byte
	snapInput []float64
	snapErr   error
)

func testSnapshots(t testing.TB) ([]byte, []byte, []float64) {
	t.Helper()
	snapOnce.Do(func() {
		if snapA, snapInput, snapErr = trainSnapshot(8, 31); snapErr == nil {
			snapB, _, snapErr = trainSnapshot(8, 32)
		}
	})
	if snapErr != nil {
		t.Fatalf("training test snapshots: %v", snapErr)
	}
	return snapA, snapB, snapInput
}

// trainSnapshot trains a tiny two-class model over dim features and
// returns its snapshot and one input row for it.
func trainSnapshot(dim int, seed int64) ([]byte, []float64, error) {
	synth := dataset.SynthConfig{
		Classes: 2, Dim: dim, ModesPerClass: 1,
		TrainSize: 40, TestSize: 8,
		NoiseLo: 0.4, NoiseHi: 1.0, Overlap: 0.1,
	}
	train, test, err := dataset.SynthCIFAR(synth, seed)
	if err != nil {
		return nil, nil, err
	}
	opts := core.DefaultTrainOptions(synth.Dim, synth.Classes)
	opts.Model.Hidden = 8
	opts.Train.Epochs = 1
	svc, err := core.NewService(core.DefaultConfig())
	if err != nil {
		return nil, nil, err
	}
	defer svc.Close()
	if _, err := svc.Train("m", train, opts); err != nil {
		return nil, nil, err
	}
	raw, err := svc.SnapshotBytes("m")
	input, _ := test.Sample(0)
	return raw, input, err
}

// testReplica is one in-process eugened node.
type testReplica struct {
	svc *core.Service
	srv *httptest.Server
	// watch names the devices whose trackers kill records before they
	// die with the node; dead, offeredAtDeath and observedAtDeath are
	// what it recorded.
	watch           []string
	dead            bool
	offeredAtDeath  uint64
	observedAtDeath map[string]int
}

// kill severs every open connection and tears the node down with no
// drain — the in-process analog of kill -9. The handlers have returned
// once srv.Close has, so the counters read there are final.
func (r *testReplica) kill() {
	r.srv.CloseClientConnections()
	r.srv.Close()
	r.offeredAtDeath = r.offered()
	r.observedAtDeath = make(map[string]int, len(r.watch))
	for _, dev := range r.watch {
		r.observedAtDeath[dev] = r.observed(dev)
	}
	r.dead = true
	r.svc.Close()
}

// offered counts what model "m"'s scheduler on this node has been
// offered: the tasks it took and the tasks it refused at admission.
func (r *testReplica) offered() uint64 {
	if r.dead {
		return r.offeredAtDeath
	}
	st := r.svc.Stats()["m"]
	return st.Submitted + st.Rejected
}

// observed counts the observations this node's tracker for device has
// taken. Every observation multiplies the tracker's scale by 1/decay, so
// the scale's logarithm is the count.
func (r *testReplica) observed(device string) int {
	if r.dead {
		return r.observedAtDeath[device]
	}
	_, ts, err := r.svc.ExportDeviceState(device)
	if err != nil {
		return 0 // no tracker here
	}
	return int(math.Round(math.Log(ts.Inc) / -math.Log(ts.Decay)))
}

// testFleet is N replicas behind one started Router.
type testFleet struct {
	replicas []*testReplica
	router   *Router
	rsrv     *httptest.Server
	cli      *service.Client
	killed   map[int]bool
}

func newTestFleet(t testing.TB, n int, mut func(*Config)) *testFleet {
	t.Helper()
	f := &testFleet{killed: make(map[int]bool)}
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		svc, err := core.NewService(core.Config{
			Workers: 2, Deadline: time.Second, QueueDepth: 64, Lookahead: 1,
		})
		if err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
		rep := &testReplica{svc: svc, srv: httptest.NewServer(service.NewServer(svc))}
		f.replicas = append(f.replicas, rep)
		urls[i] = rep.srv.URL
	}
	cfg := Config{
		Nodes:         urls,
		ProbeInterval: 50 * time.Millisecond,
		SyncInterval:  100 * time.Millisecond,
		FailThreshold: 3,
		Retry:         &service.RetryPolicy{MaxAttempts: 4, Budget: 256},
		Logf:          t.Logf,
	}
	if mut != nil {
		mut(&cfg)
	}
	router, err := New(cfg)
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	router.Start(context.Background())
	f.router = router
	f.rsrv = httptest.NewServer(router)
	f.cli = service.NewClient(f.rsrv.URL)
	t.Cleanup(func() {
		f.rsrv.Close()
		router.Close()
		for i, r := range f.replicas {
			if !f.killed[i] {
				r.kill()
			}
		}
	})
	return f
}

func (f *testFleet) kill(i int) {
	f.killed[i] = true
	f.replicas[i].kill()
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", d, what)
}

// fleetCounts is one reading of the counters conservation is stated in.
type fleetCounts struct {
	proxied uint64 // attempts the router sent
	offered uint64 // tasks the replicas' schedulers took or refused
	failed  uint64 // attempts that ended in no response: each one either started a failover or failed a pinned request
}

func (f *testFleet) counts() fleetCounts {
	st := f.router.Status()
	c := fleetCounts{proxied: st.Proxied, failed: st.Failovers + st.PinnedFailures}
	for _, r := range f.replicas {
		c.offered += r.offered()
	}
	return c
}

// assertConserved checks the router's books over a stretch in which
// only single-row infers flowed and every anonymous one was answered:
// each attempt the router sent reached exactly one replica's scheduler,
// except that an attempt that ended in a transport error may have died
// before it (the router cannot know which; a kill -9 cuts both kinds).
// So proxied = offered + the failed attempts that never arrived, and
// with no failed attempt the two are equal.
func (f *testFleet) assertConserved(t *testing.T, before fleetCounts) {
	t.Helper()
	now := f.counts()
	proxied, offered, failed := now.proxied-before.proxied, now.offered-before.offered, now.failed-before.failed
	t.Logf("conservation: proxied %d, offered to schedulers %d, failed attempts %d", proxied, offered, failed)
	if offered > proxied {
		t.Fatalf("replicas were offered %d tasks but the router sent only %d attempts: something was delivered twice", offered, proxied)
	}
	if proxied > offered+failed {
		t.Fatalf("router sent %d attempts, replicas were offered %d and only %d attempts failed: %d answered attempts never reached a scheduler",
			proxied, offered, failed, proxied-offered-failed)
	}
}

// TestRouterCloseJoinsItsGoroutines: Close returns promptly, and once
// the servers around the Router are down as well the process is back to
// the goroutines it had before Start. A loop that stops watching r.stop
// fails here in seconds and by name. It is the package's first test
// because every later one that closes a Router would hang on the same
// defect until the ten-minute timeout, and say less.
func TestRouterCloseJoinsItsGoroutines(t *testing.T) {
	// tensor's helpers live as long as the process and are nobody's to
	// join: start them before the baseline is taken.
	tensor.Each(tensor.Parallelism(), func(int) {})
	base := runtime.NumGoroutine()

	mux := readyOKMux(nil)
	mux.HandleFunc("POST /v1/models/m/infer", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{"pred":0}`)
	})
	replica := httptest.NewServer(mux)
	defer replica.Close()
	router, err := New(Config{
		Nodes:         []string{replica.URL},
		ProbeInterval: 10 * time.Millisecond,
		SyncInterval:  10 * time.Millisecond,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	router.Start(context.Background())
	front := httptest.NewServer(router)
	defer front.Close()
	for i := 0; i < 8; i++ {
		resp, err := http.Post(front.URL+"/v1/models/m/infer", "application/json", strings.NewReader(`{"input":[1]}`))
		if err != nil {
			t.Fatal(err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		if cerr := resp.Body.Close(); err != nil || cerr != nil {
			t.Fatalf("infer %d through the router: reading the answer: %v, %v", i, err, cerr)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("infer %d through the router: status %d", i, resp.StatusCode)
		}
	}

	closed := make(chan struct{})
	go func() {
		router.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("cluster.Router.Close has not returned after 2s: a loop that Start launched is not watching r.stop")
	}
	// The keep-alive connections on both sides of the Router end with
	// their servers.
	front.Close()
	replica.Close()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines 2s after Router.Close, %d before Start; still running:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// A snapshot PUT through the router must land on every replica with
// the same content version, and inference must flow end to end.
func TestClusterReplicatesSnapshotToAllNodes(t *testing.T) {
	snap, _, input := testSnapshots(t)
	f := newTestFleet(t, 3, nil)
	ctx := context.Background()
	if err := f.cli.PutSnapshot(ctx, "m", snap); err != nil {
		t.Fatalf("PutSnapshot via router: %v", err)
	}
	want, ok := f.router.store.versions()["m"]
	if !ok {
		t.Fatal("router store did not adopt the model")
	}
	for i, rep := range f.replicas {
		got, err := service.NewClient(rep.srv.URL).ModelVersion(ctx, "m")
		if err != nil {
			t.Fatalf("replica %d version: %v", i, err)
		}
		if got != want {
			t.Fatalf("replica %d serves version %s; router wants %s", i, got, want)
		}
	}
	if _, err := f.cli.Infer(ctx, "m", input); err != nil {
		t.Fatalf("infer via router: %v", err)
	}
}

// Kill one of two replicas under a storm of concurrent requests: every
// idempotent request must get exactly one answer (no losses — the
// survivors absorb the failovers), every device-tagged one answered 2xx
// must have been observed exactly once, and the router's count of
// attempts must balance against what the replicas' schedulers saw.
func TestKillReplicaMidStormNoLostIdempotentRequests(t *testing.T) {
	snap, _, input := testSnapshots(t)
	f := newTestFleet(t, 2, nil)
	ctx := context.Background()
	if err := f.cli.PutSnapshot(ctx, "m", snap); err != nil {
		t.Fatalf("PutSnapshot: %v", err)
	}

	// The storm itself is anonymous, so that the kill is felt by requests
	// that can fail over. Once it has been felt — a failover, or the
	// victim's ejection — taggers join with device-tagged requests, each
	// for a device of its own. Those pin to one replica and are never
	// replayed, so the ones pinned to the victim fail until it is ejected;
	// what must hold is that each one answered 2xx was observed exactly
	// once, and each one that failed was attempted exactly once.
	const workers, perWorker, taggers = 16, 20, 4
	devices := make([]string, taggers)
	for w := range devices {
		devices[w] = fmt.Sprintf("storm-dev-%d", w)
	}
	for _, r := range f.replicas {
		r.watch = devices
	}
	before := f.counts()
	var ok, failed atomic.Int64
	tagOK, tagFailed := make([]int, taggers), make([]int, taggers)
	var wg sync.WaitGroup
	var killOnce sync.Once
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < perWorker; i++ {
				if _, err := f.cli.Infer(ctx, "m", input); err != nil {
					failed.Add(1)
					t.Errorf("infer failed mid-storm: %v", err)
				} else {
					ok.Add(1)
				}
				if i == perWorker/4 {
					killOnce.Do(func() { f.kill(1) })
				}
			}
		}()
	}
	for w := 0; w < taggers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
				st := f.router.Status()
				if st.Failovers > 0 || slices.ContainsFunc(st.Nodes, func(n service.ClusterNodeStatus) bool { return !n.Healthy }) {
					break
				}
			}
			for i := 0; i < perWorker; i++ {
				if _, err := f.cli.InferObserved(ctx, "m", devices[w], input); err != nil {
					tagFailed[w]++
				} else {
					tagOK[w]++
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()

	if got := ok.Load() + failed.Load(); got != workers*perWorker {
		t.Fatalf("answered %d of %d requests: some were lost", got, workers*perWorker)
	}
	if failed.Load() != 0 {
		t.Fatalf("%d idempotent requests failed; the surviving replica should have absorbed them", failed.Load())
	}
	f.assertConserved(t, before)
	for w, dev := range devices {
		observed := 0
		for _, r := range f.replicas {
			observed += r.observed(dev)
		}
		// A request that failed may still have been delivered (the kill
		// cut its answer, not its arrival); one that succeeded was
		// delivered once.
		if observed < tagOK[w] || observed > tagOK[w]+tagFailed[w] {
			t.Fatalf("device %s: %d requests answered 2xx and %d failed, but the fleet observed %d: a delivery was lost or repeated",
				dev, tagOK[w], tagFailed[w], observed)
		}
	}
	st := f.router.Status()
	if st.Failovers < 1 {
		t.Fatalf("no failovers recorded; the kill should have forced at least one (status: %+v)", st)
	}
	pinnedFailed := 0
	for _, n := range tagFailed {
		pinnedFailed += n
	}
	if st.PinnedFailures != uint64(pinnedFailed) {
		t.Fatalf("%d device-tagged requests failed but the router counts %d pinned failures: a pinned request was retried, or failed unattempted",
			pinnedFailed, st.PinnedFailures)
	}
	// The dead node must end up ejected.
	waitFor(t, 2*time.Second, "killed node ejection", func() bool {
		for _, n := range f.router.Status().Nodes {
			if n.Base == f.replicas[1].srv.URL {
				return !n.Healthy
			}
		}
		return false
	})
}

// A replication push failing to one node must not take the cluster
// down: the divergent node keeps serving its old version, everyone
// else takes the new one, and the sync loop converges the stragglers
// once the fault clears.
func TestSnapshotPushFailureKeepsClusterServing(t *testing.T) {
	snapV1, snapV2, input := testSnapshots(t)
	f := newTestFleet(t, 2, nil)
	ctx := context.Background()
	if err := f.cli.PutSnapshot(ctx, "m", snapV1); err != nil {
		t.Fatalf("installing v1: %v", err)
	}

	if err := failpoint.Enable("cluster.replicate.push", "1*error(replica unreachable)"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disable("cluster.replicate.push")

	// v2 lands on one replica and fails to the other.
	if err := f.cli.PutSnapshot(ctx, "m", snapV2); err != nil {
		t.Fatalf("installing v2 must not fail outright on a partial push: %v", err)
	}
	want := f.router.store.versions()["m"]

	// The fleet keeps serving throughout (whichever version a node has).
	for i := 0; i < 10; i++ {
		if _, err := f.cli.Infer(ctx, "m", input); err != nil {
			t.Fatalf("infer during divergence: %v", err)
		}
	}

	// The sync loop repairs the divergent node (fail budget spent, so
	// the retry goes through).
	waitFor(t, 5*time.Second, "version convergence", func() bool {
		for _, n := range f.router.Status().Nodes {
			if n.Installed["m"] != want {
				return false
			}
		}
		return true
	})
	for i, rep := range f.replicas {
		got, err := service.NewClient(rep.srv.URL).ModelVersion(ctx, "m")
		if err != nil || got != want {
			t.Fatalf("replica %d converged to %q (err %v); want %q", i, got, err, want)
		}
	}
}

// A restarted router has an empty store; reconcile must rebuild it
// from the fleet — re-discovering models, adopting their bytes, and
// priming per-node installed versions so the first sync pass pushes
// nothing that already matches.
func TestRouterRestartReconciles(t *testing.T) {
	snap, _, input := testSnapshots(t)
	f := newTestFleet(t, 2, nil)
	ctx := context.Background()
	if err := f.cli.PutSnapshot(ctx, "m", snap); err != nil {
		t.Fatalf("PutSnapshot: %v", err)
	}
	want := f.router.store.versions()["m"]
	f.rsrv.Close()
	f.router.Close()

	urls := []string{f.replicas[0].srv.URL, f.replicas[1].srv.URL}
	router2, err := New(Config{
		Nodes:         urls,
		ProbeInterval: 50 * time.Millisecond,
		SyncInterval:  100 * time.Millisecond,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	router2.Start(ctx)
	defer router2.Close()

	if got := router2.store.versions()["m"]; got != want {
		t.Fatalf("restarted router adopted version %q; fleet serves %q", got, want)
	}
	for _, n := range router2.Status().Nodes {
		if n.Installed["m"] != want {
			t.Fatalf("node %s installed map not primed: %+v", n.Base, n.Installed)
		}
	}
	rsrv2 := httptest.NewServer(router2)
	defer rsrv2.Close()
	if _, err := service.NewClient(rsrv2.URL).Infer(ctx, "m", input); err != nil {
		t.Fatalf("infer via restarted router: %v", err)
	}
}

// Device traffic is pinned: a failed non-idempotent request must
// surface as an error without any replay — zero deliveries on failure,
// exactly one on success, never a failover.
func TestPinnedDeviceRequestNeverReplayed(t *testing.T) {
	snap, _, _ := testSnapshots(t)
	f := newTestFleet(t, 2, nil)
	ctx := context.Background()
	if err := f.cli.PutSnapshot(ctx, "m", snap); err != nil {
		t.Fatalf("PutSnapshot: %v", err)
	}

	if err := failpoint.Enable("cluster.proxy.forward", "1*error(connection reset)"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disable("cluster.proxy.forward")

	const dev = "pinned-dev-1"
	before := f.router.Status()
	if err := f.cli.Observe(ctx, dev, "m", 0, 1); err == nil {
		t.Fatal("observe through an injected fault must fail, not be silently retried")
	}
	after := f.router.Status()
	if after.Failovers != before.Failovers {
		t.Fatalf("a pinned request failed over (%d -> %d failovers)", before.Failovers, after.Failovers)
	}
	if after.PinnedFailures != before.PinnedFailures+1 {
		t.Fatalf("pinned failure not counted: %d -> %d", before.PinnedFailures, after.PinnedFailures)
	}
	// The failed observe must not have been delivered anywhere.
	if d, err := f.cli.CacheDecision(ctx, dev); err == nil {
		t.Fatalf("device %q has %v observations after a failed observe; want none", dev, d.Observations)
	}

	// With the fault spent, the retried (by the caller, not the router)
	// observe is delivered exactly once.
	if err := f.cli.Observe(ctx, dev, "m", 0, 1); err != nil {
		t.Fatalf("observe after fault cleared: %v", err)
	}
	d, err := f.cli.CacheDecision(ctx, dev)
	if err != nil {
		t.Fatalf("cache-decision: %v", err)
	}
	if d.Observations != 1 {
		t.Fatalf("device %q observed %v times; want exactly 1", dev, d.Observations)
	}
}

// An anonymous (idempotent) request hitting an injected transport
// fault must fail over to a survivor and succeed.
func TestAnonymousInferFailsOverOnFault(t *testing.T) {
	snap, _, input := testSnapshots(t)
	f := newTestFleet(t, 2, nil)
	ctx := context.Background()
	if err := f.cli.PutSnapshot(ctx, "m", snap); err != nil {
		t.Fatalf("PutSnapshot: %v", err)
	}
	if err := failpoint.Enable("cluster.proxy.forward", "1*error(connection reset)"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disable("cluster.proxy.forward")

	before := f.router.Status().Failovers
	if _, err := f.cli.Infer(ctx, "m", input); err != nil {
		t.Fatalf("idempotent infer should have failed over: %v", err)
	}
	if got := f.router.Status().Failovers; got != before+1 {
		t.Fatalf("failovers %d -> %d; want exactly one", before, got)
	}
}

// fakeReplica builds a scripted replica out of a plain mux — for
// scenarios (hangs, synthetic 429s) a real service can't express on
// demand.
func fakeReplica(t *testing.T, mux *http.ServeMux) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func readyOKMux(hang *atomic.Bool) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/readyz", func(w http.ResponseWriter, r *http.Request) {
		if hang != nil && hang.Load() {
			<-r.Context().Done()
			return
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, `{"status":"ready"}`)
	})
	mux.HandleFunc("GET /v1/models", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{"models":[]}`)
	})
	// No /v1/stats: the prober tolerates a missing stats endpoint, and
	// tests that need one register their own.
	return mux
}

// A hung replica — accepting connections but never answering — must be
// detected in O(probe interval) via the derived per-probe timeout, not
// O(client request timeout).
func TestHungReplicaEjectedWithinProbeBudget(t *testing.T) {
	var hang atomic.Bool
	hungSrv := fakeReplica(t, readyOKMux(&hang))
	okSrv := fakeReplica(t, readyOKMux(nil))

	router, err := New(Config{
		Nodes:         []string{okSrv.URL, hungSrv.URL},
		ProbeInterval: 50 * time.Millisecond,
		FailThreshold: 3,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	router.Start(context.Background())
	defer router.Close()
	hang.Store(true)

	// 3 consecutive probe timeouts at 50ms cadence with a 50ms (floor)
	// per-probe deadline: ejection lands within a few hundred ms. The 2s
	// budget is pure slack; the point is it is nowhere near a 15s+
	// request timeout.
	waitFor(t, 2*time.Second, "hung node ejection", func() bool {
		for _, n := range router.Status().Nodes {
			if n.Base == hungSrv.URL {
				return !n.Healthy
			}
		}
		return false
	})

	// Half-open recovery: once the node answers again, consecutive probe
	// successes reinstate it.
	hang.Store(false)
	waitFor(t, 2*time.Second, "node reinstatement", func() bool {
		for _, n := range router.Status().Nodes {
			if n.Base == hungSrv.URL {
				return n.Healthy
			}
		}
		return false
	})
}

// A 429 from a replica must be propagated — never failed over into
// another (equally overloaded) replica — and its Retry-After must be
// floored by the router's drain estimate when the observed backlog
// says the scheduler's hint is optimistic.
func TestOverloadPropagatesWithAdaptiveRetryAfter(t *testing.T) {
	var goodput atomic.Int64
	mux := readyOKMux(nil)
	mux.HandleFunc("POST /v1/models/m/infer", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprintln(w, `{"error":"overloaded"}`)
	})
	// Stats crawl: +1 goodput per poll against a 500-deep queue — a
	// drain rate that says the backlog needs way more than 1s.
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"models":{"m":{"goodput":%d,"queue_depth":500}}}`+"\n", goodput.Add(1))
	})

	srv := httptest.NewServer(mux)
	defer srv.Close()
	router, err := New(Config{
		Nodes:         []string{srv.URL},
		ProbeInterval: 50 * time.Millisecond,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	router.Start(context.Background())
	defer router.Close()
	rsrv := httptest.NewServer(router)
	defer rsrv.Close()

	// Let the prober take a few stats samples to establish a rate.
	waitFor(t, 3*time.Second, "drain rate", func() bool {
		return router.nodes[0].drain.Floor() > time.Second
	})

	beforeProxied := router.Status().Proxied
	resp, err := http.Post(rsrv.URL+"/v1/models/m/infer", "application/json", strings.NewReader(`{"input":[1]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d; want 429 propagated", resp.StatusCode)
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After %q not parseable: %v", resp.Header.Get("Retry-After"), err)
	}
	if secs <= 1 {
		t.Fatalf("Retry-After = %ds; want the drain floor to raise it above the server's 1s hint", secs)
	}
	if got := router.Status(); got.Failovers != 0 {
		t.Fatalf("router failed over on a 429 (%d failovers); overload must propagate", got.Failovers)
	}
	if got := router.Status().Proxied; got != beforeProxied+1 {
		t.Fatalf("proxied %d attempts for one 429; want exactly 1", got-beforeProxied)
	}
}

// TestRestartedEmptyReplicaGetsRepushed covers the stale-installed-map
// trap: a replica dies and comes back as a brand-new process (empty
// model registry) on the same address while the router keeps running.
// The router's last belief about that node — model installed at the
// current version — is now wrong, and trusting it would make the sync
// loop skip exactly the push the node needs. Reinstatement must drop
// the stale installed map, re-learn what the node actually reports, and
// re-push the snapshot.
func TestRestartedEmptyReplicaGetsRepushed(t *testing.T) {
	snap, _, input := testSnapshots(t)
	f := newTestFleet(t, 2, nil)
	ctx := context.Background()

	if err := f.cli.PutSnapshot(ctx, "m", snap); err != nil {
		t.Fatalf("PutSnapshot: %v", err)
	}
	_, wantVer, ok := f.router.store.get("m")
	if !ok {
		t.Fatal("store did not record the installed model")
	}
	waitFor(t, 2*time.Second, "initial replication", func() bool {
		return f.router.nodes[1].installedVersion("m") == wantVer
	})

	addr := f.replicas[1].srv.Listener.Addr().String()
	f.kill(1)
	waitFor(t, 2*time.Second, "ejection of killed replica", func() bool {
		return !f.router.nodes[1].health.healthy()
	})

	// Restart on the same address with a fresh (empty) service — the
	// process-restart analog. Go listeners set SO_REUSEADDR, so the
	// rebind succeeds immediately.
	svc, err := core.NewService(core.Config{
		Workers: 2, Deadline: time.Second, QueueDepth: 64, Lookahead: 1,
	})
	if err != nil {
		t.Fatalf("restart service: %v", err)
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		svc.Close()
		t.Fatalf("relisten on %s: %v", addr, err)
	}
	srv := &httptest.Server{Listener: l, Config: &http.Server{Handler: service.NewServer(svc)}}
	srv.Start()
	f.replicas[1] = &testReplica{svc: svc, srv: srv}
	f.killed[1] = false // fleet cleanup owns the restarted replica

	// The router must reinstate the node and push it back to the current
	// version; a stale installed map would leave it serving "unknown
	// model" forever while /v1/cluster claims it converged.
	direct := service.NewClient(srv.URL)
	waitFor(t, 5*time.Second, "re-push to restarted replica", func() bool {
		got, err := direct.ModelVersion(ctx, "m")
		return err == nil && got == wantVer
	})
	if !f.router.nodes[1].health.healthy() {
		t.Fatal("restarted replica was not reinstated")
	}
	if _, err := f.cli.Infer(ctx, "m", input); err != nil {
		t.Fatalf("infer through router after restart: %v", err)
	}
}

// Single-attempt routes stream: the router holds no body it could never
// resend, only caps it. A body over the route's cap — declared by
// Content-Length or discovered while streaming a chunked upload — is
// answered 413, the same answer a replica gives, without the replica
// being blamed for the failed exchange.
func TestPinnedRouteStreamsAndCapsBody(t *testing.T) {
	snap, _, _ := testSnapshots(t)
	f := newTestFleet(t, 2, nil)
	ctx := context.Background()
	if err := f.cli.PutSnapshot(ctx, "m", snap); err != nil {
		t.Fatalf("PutSnapshot: %v", err)
	}
	big := make([]byte, service.MaxDeviceStateBody+1)
	put := func(body io.Reader) int {
		t.Helper()
		req, err := http.NewRequestWithContext(ctx, http.MethodPut, f.rsrv.URL+"/v1/devices/streamed/state", body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("PUT state through the router: %v", err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	if got := put(bytes.NewReader(big)); got != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body with a Content-Length: status %d, want 413", got)
	}
	// io.MultiReader hides the length: the request goes out chunked.
	if got := put(io.MultiReader(bytes.NewReader(big))); got != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized chunked body: status %d, want 413", got)
	}
	st := f.router.Status()
	for _, n := range st.Nodes {
		if !n.Healthy || n.ConsecutiveFailures != 0 {
			t.Fatalf("node %s blamed for a client's oversized body: %+v", n.Base, n)
		}
	}
	// A body inside the cap still streams through to the replica, which
	// refuses it for what it is (not a tracker state): the replica's 400.
	if got := put(bytes.NewReader(big[:1024])); got != http.StatusBadRequest {
		t.Fatalf("small garbage state: status %d, want the replica's 400", got)
	}
	if err := f.cli.Observe(ctx, "streamed", "m", 0, 1); err != nil {
		t.Fatalf("observe after the oversized uploads: %v", err)
	}
}

// An upload the client abandons on a streamed route fails inside the
// router's exchange with the replica, but it is the client's failure:
// twice the ejection threshold of them, on the routes that stream, leave
// the owner healthy with no failure counted against it.
func TestAbortedUploadDoesNotBlameNode(t *testing.T) {
	f := newTestFleet(t, 2, nil)
	addr := strings.TrimPrefix(f.rsrv.URL, "http://")
	for i, target := range []string{
		"PUT /v1/devices/aborted/state", "POST /v1/devices/aborted/observe", "POST /v1/models/m/train",
		"PUT /v1/devices/aborted/state", "POST /v1/devices/aborted/observe", "POST /v1/models/m/train",
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		// Ten bytes of a promised thousand, then the sending half closes:
		// the router's read of the body ends in an unexpected EOF, and the
		// answer it writes can still be read.
		fmt.Fprintf(conn, "%s HTTP/1.1\r\nHost: router\r\nContent-Length: 1000\r\n\r\n0123456789", target)
		if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
			t.Fatal(err)
		}
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatalf("upload %d (%s): reading the router's answer: %v", i, target, err)
		}
		_ = resp.Body.Close()
		_ = conn.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("upload %d (%s): status %d, want 400", i, target, resp.StatusCode)
		}
	}
	st := f.router.Status()
	if st.PinnedFailures != 0 {
		t.Fatalf("pinned failures = %d after aborted uploads, want 0", st.PinnedFailures)
	}
	for _, n := range st.Nodes {
		if !n.Healthy || n.ConsecutiveFailures != 0 || n.Ejections != 0 {
			t.Fatalf("node %s blamed for a client's aborted upload: %+v", n.Base, n)
		}
	}
}

// A training payload the replica refuses is the client's error all the
// way out: the replica's 400 is relayed, and the node is not blamed. At
// the parent commit a label outside the classes, or a dim whose product
// with the sample count overflows, panicked the replica's handler;
// net/http dropped the connection, and the router counted the EOF
// against the node — FailThreshold (3) such requests ejected a healthy
// primary. Six are sent here.
func TestRefusedTrainingPayloadDoesNotBlameNode(t *testing.T) {
	f := newTestFleet(t, 2, nil)
	for i := 0; i < 3; i++ {
		for _, body := range []string{
			`{"data":{"dim":2,"x":[1,2,3,4],"labels":[0,7]},"classes":2}`,
			`{"data":{"dim":4611686018427387904,"x":[],"labels":[0,1,0,1]},"classes":2}`,
		} {
			resp, err := http.Post(f.rsrv.URL+"/v1/models/m/train", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatalf("train %.50s: %v", body, err)
			}
			_ = resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("train %.50s: status %d, want the replica's 400", body, resp.StatusCode)
			}
		}
	}
	st := f.router.Status()
	if st.PinnedFailures != 0 {
		t.Fatalf("pinned failures = %d after refused payloads, want 0", st.PinnedFailures)
	}
	for _, n := range st.Nodes {
		if !n.Healthy || n.ConsecutiveFailures != 0 || n.Ejections != 0 {
			t.Fatalf("node %s blamed for a refused payload: %+v", n.Base, n)
		}
	}
}

// A pinned request is attempted exactly once: with the forward seam
// failing every call, one pinned request makes one attempt, where an
// anonymous one makes as many as the retry policy allows.
func TestPinnedRequestAttemptedOnce(t *testing.T) {
	snap, _, input := testSnapshots(t)
	f := newTestFleet(t, 3, nil)
	ctx := context.Background()
	if err := f.cli.PutSnapshot(ctx, "m", snap); err != nil {
		t.Fatalf("PutSnapshot: %v", err)
	}
	if err := failpoint.Enable("cluster.proxy.forward", "error(connection reset)"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disable("cluster.proxy.forward")

	hits := func() int64 { return failpoint.Counts()["cluster.proxy.forward"] }
	before := hits()
	if _, err := f.cli.InferObserved(ctx, "m", "once-dev", input); err == nil {
		t.Fatal("pinned infer through a failing seam must fail")
	}
	if got := hits() - before; got != 1 {
		t.Fatalf("pinned request made %d attempts, want exactly 1", got)
	}
	before = hits()
	if _, err := f.cli.Infer(ctx, "m", input); err == nil {
		t.Fatal("anonymous infer through a failing seam must fail once attempts run out")
	}
	if got := hits() - before; got != 3 {
		t.Fatalf("anonymous request made %d attempts, want one per node (3)", got)
	}
	if got := f.router.Status().PinnedFailures; got != 1 {
		t.Fatalf("pinned failures = %d, want 1", got)
	}
}
