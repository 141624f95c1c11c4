// Command eugened runs the Eugene deep-intelligence-as-a-service server:
// an HTTP/JSON front end over the model registry and the RTDeepIoT
// inference scheduler.
//
// Usage:
//
//	eugened [-addr :8080] [-workers 4] [-deadline 200ms] [-lookahead 1] [-maxbatch 0] [-precision f64] [-admission=true] [-data-dir DIR] [-pprof ADDR]
//
// With -data-dir, every trained/calibrated model (and its GP predictor)
// is snapshotted to DIR and restored on the next boot, so a restarted
// server answers bitwise-identically with no retraining.
//
// -precision f32 serves the inference hot path with frozen float32
// weights (8-lane SIMD kernels, half the memory traffic); training and
// snapshots stay float64.
//
// -admission (on by default) enables SLO admission control: requests
// whose predicted completion already misses the deadline are rejected
// with 429 + Retry-After instead of queued, and under sustained
// pressure the scheduler degrades gracefully (earlier early-exits,
// then the f32 serving tier) before turning clients away.
//
// On SIGINT/SIGTERM the server drains: /v1/readyz flips to 503 so load
// balancers stop routing new work, in-flight requests get
// -drain-timeout to finish, and only then are the worker pools stopped.
// /v1/healthz stays 200 throughout — the process is alive, just not
// accepting.
//
// -pprof exposes net/http/pprof on a separate listener (e.g.
// "localhost:6060") for CPU/heap profiling; it is off by default and
// should never be bound to a public address.
//
// -mutex-profile-fraction n samples 1/n of mutex contention events and
// -block-profile-rate n samples one blocking event per n nanoseconds
// blocked; both feed the /debug/pprof/mutex and /debug/pprof/block
// endpoints on the -pprof listener and are off (0) by default — the
// dynamic counterpart of the locks static analyzer when a contention
// regression needs a callstack.
//
// Router mode:
//
//	eugened -cluster-route http://10.0.0.1:8080,http://10.0.0.2:8080 [-addr :8080] [-probe-interval 500ms] [-sync-interval 2s] [-fail-threshold 3]
//
// -cluster-route turns the process into a cluster router instead of a
// replica: it fronts the listed eugened replicas with the same /v1 API,
// replicating model snapshots to every node, routing device-tagged
// inference by rendezvous hash (device tracker state stays node-local),
// balancing anonymous inference by least-outstanding, and failing over
// idempotent requests when a replica dies. GET /v1/cluster reports
// per-node health and installed snapshot versions.
//
// Membership is dynamic: POST /v1/cluster/nodes admits a replica at
// runtime (the router syncs every snapshot onto it before it enters
// the hash ring), POST /v1/cluster/nodes/{id}/drain migrates a node's
// device trackers to their new rendezvous owners and then removes it,
// and DELETE /v1/cluster/nodes/{id} force-removes a dead node,
// forfeiting its trackers (counted in /v1/cluster). The admin
// endpoints carry no authentication — run the router inside the same
// trust boundary as the replicas, never on a public listener. Drive
// them with eugenectl cluster. For router redundancy, run several
// routers over the same replica list and give clients the full router
// list (eugene.NewFailoverClient); routers converge via their
// reconcile/sync loops.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"eugene/internal/cluster"
	"eugene/internal/core"
	"eugene/internal/sched"
	"eugene/internal/service"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "eugened:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 4, "inference worker pool size")
	deadline := flag.Duration("deadline", 200*time.Millisecond, "per-request latency constraint")
	lookahead := flag.Int("lookahead", 1, "RTDeepIoT scheduler lookahead k")
	queue := flag.Int("queue", 256, "most rows one inference call may submit (a larger infer-batch is refused with 413)")
	maxBatch := flag.Int("maxbatch", 0, "most same-stage tasks coalesced per batched forward pass; a worker takes that many only while its peers are busy (0 = default 64, 1 disables)")
	precision := flag.String("precision", "", "serving precision: f64 (default) or f32 (frozen float32 weights, 8-lane SIMD hot path)")
	admission := flag.Bool("admission", true, "SLO admission control: reject requests predicted to miss their deadline (429 + Retry-After) and degrade gracefully under overload")
	dataDir := flag.String("data-dir", "", "snapshot directory: persist models on train/calibrate/predictor and restore them on boot (empty = in-memory only)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long in-flight requests get to finish after SIGINT/SIGTERM")
	pprofAddr := flag.String("pprof", "", "expose net/http/pprof on this separate address (e.g. localhost:6060; empty = off)")
	mutexFraction := flag.Int("mutex-profile-fraction", 0, "sample 1/n of mutex contention events into the pprof mutex profile (0 = off; requires -pprof to read)")
	blockRate := flag.Int("block-profile-rate", 0, "sample one blocking event per n ns blocked into the pprof block profile (0 = off, 1 = everything; requires -pprof to read)")
	clusterRoute := flag.String("cluster-route", "", "run as a cluster router over these comma-separated replica URLs instead of serving models locally")
	probeInterval := flag.Duration("probe-interval", 500*time.Millisecond, "router mode: replica health-probe cadence")
	syncInterval := flag.Duration("sync-interval", 2*time.Second, "router mode: snapshot replication reconcile cadence")
	failThreshold := flag.Int("fail-threshold", 3, "router mode: consecutive failures before a replica is ejected")
	flag.Parse()

	// Contention profiling is off by default (each sampled event costs a
	// callstack capture on the serving hot path); both knobs apply in
	// replica and router mode alike and are read via -pprof's
	// /debug/pprof/{mutex,block} endpoints.
	if *mutexFraction < 0 || *blockRate < 0 {
		return fmt.Errorf("-mutex-profile-fraction (%d) and -block-profile-rate (%d) must be ≥0", *mutexFraction, *blockRate)
	}
	if *mutexFraction > 0 {
		runtime.SetMutexProfileFraction(*mutexFraction)
	}
	if *blockRate > 0 {
		runtime.SetBlockProfileRate(*blockRate)
	}

	if *clusterRoute != "" {
		return runRouter(routerOptions{
			addr:          *addr,
			nodes:         strings.Split(*clusterRoute, ","),
			probeInterval: *probeInterval,
			syncInterval:  *syncInterval,
			failThreshold: *failThreshold,
			drainTimeout:  *drainTimeout,
		})
	}

	svc, err := core.NewService(core.Config{
		Workers:    *workers,
		Deadline:   *deadline,
		QueueDepth: *queue,
		Lookahead:  *lookahead,
		MaxBatch:   *maxBatch,
		Precision:  *precision,
		Admission:  *admission,
		DataDir:    *dataDir,
	})
	if err != nil {
		return err
	}
	defer svc.Close()
	effectiveMaxBatch := *maxBatch
	if effectiveMaxBatch == 0 {
		effectiveMaxBatch = sched.DefaultMaxBatch
	}
	effectivePrecision := *precision
	if effectivePrecision == "" {
		effectivePrecision = "f64"
	}
	if *dataDir != "" {
		log.Printf("eugened restored %d model(s) from %s", len(svc.Models()), *dataDir)
	}
	if *pprofAddr != "" {
		// The blank net/http/pprof import registers its handlers on
		// http.DefaultServeMux, which the API server never uses — the
		// profiler is only reachable through this listener.
		go func() {
			log.Printf("eugened pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("eugened pprof listener failed: %v", err)
			}
		}()
	}

	front := service.NewServer(svc)
	// The deferred svc.Close stops the worker pools after the drain: a
	// request mid-handler must still find a live scheduler.
	return serve(service.NewHTTPServer(*addr, front), front, "eugened", *drainTimeout,
		fmt.Sprintf("eugened listening on %s (workers=%d deadline=%v k=%d maxbatch=%d precision=%s admission=%v)",
			*addr, *workers, *deadline, *lookahead, effectiveMaxBatch, effectivePrecision, *admission))
}

// serve runs srv until SIGINT/SIGTERM and then drains it: readiness
// flips first so probes route new work elsewhere, then Shutdown lets
// in-flight requests finish within drainTimeout. name begins the drain's
// log lines; banner is logged once the signal handler is in place.
func serve(srv *http.Server, h interface{ SetDraining(bool) }, name string, drainTimeout time.Duration, banner string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() {
		<-ctx.Done()
		stop() // restore default handling: a second signal kills immediately
		log.Printf("%s draining (timeout %v)", name, drainTimeout)
		h.SetDraining(true)
		sctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		done <- srv.Shutdown(sctx)
	}()

	log.Print(banner)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if ctx.Err() != nil {
		// A signal initiated the shutdown; ListenAndServe returned the
		// moment the listener closed, but Shutdown is still waiting on
		// in-flight handlers — block until the drain completes.
		if err := <-done; err != nil {
			return fmt.Errorf("draining: %w", err)
		}
		log.Printf("%s drained cleanly", name)
	}
	return nil
}

type routerOptions struct {
	addr          string
	nodes         []string
	probeInterval time.Duration
	syncInterval  time.Duration
	failThreshold int
	drainTimeout  time.Duration
}

// runRouter serves the cluster router: same listener shape and drain
// discipline as replica mode, but the handler proxies to the fleet.
func runRouter(opts routerOptions) error {
	nodes := make([]string, 0, len(opts.nodes))
	for _, n := range opts.nodes {
		if n = strings.TrimSpace(n); n != "" {
			nodes = append(nodes, strings.TrimRight(n, "/"))
		}
	}
	router, err := cluster.New(cluster.Config{
		Nodes:         nodes,
		ProbeInterval: opts.probeInterval,
		SyncInterval:  opts.syncInterval,
		FailThreshold: opts.failThreshold,
	})
	if err != nil {
		return err
	}
	defer router.Close()
	router.Start(context.Background())

	return serve(service.NewHTTPServer(opts.addr, router), router, "eugened router", opts.drainTimeout,
		fmt.Sprintf("eugened router listening on %s (replicas=%d probe=%v sync=%v fail-threshold=%d)",
			opts.addr, len(nodes), opts.probeInterval, opts.syncInterval, opts.failThreshold))
}
