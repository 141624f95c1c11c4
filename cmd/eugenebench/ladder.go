package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"eugene/internal/cache"
	"eugene/internal/cluster"
	"eugene/internal/core"
	"eugene/internal/sched"
	"eugene/internal/service"
	"eugene/internal/snapshot"
	"eugene/internal/staged"
	"eugene/internal/tensor"
)

// The ladder drives the same rows, one caller, sequentially, into each
// layer's public entry in turn. A rung's time contains every rung below
// it, so a layer's self time is its rung minus the one below. Every
// service on the ladder runs one scheduler worker: with a single
// sequential caller that makes a rung's wall time the cost of the
// layers under it, which is what must add up; sched.w2_over_w1 measures
// scaling separately.
//
// What a rung contains must also sit in the same memory as the rung
// below, or the difference measures where the allocator put two copies
// of the 6 MB of weights: a single row streams them all, and one copy
// can be 6 % faster than another for a whole process's life. The staged
// and sched rungs therefore share one model, and the handler, client and
// cluster rungs share the core rung's service. core.Service clones the
// model for its own pool, so between sched and core the copies differ;
// everything the rungs call into is therefore built afresh every round,
// and over the rounds that difference averages out.

// stageModel is what both serving precisions offer the scheduler.
type stageModel interface {
	ExecStageBatch(hidden [][]float64, stage int, dst [][]float64) ([][]float64, []staged.StageOutput)
	NumStages() int
}

// execLedger is what the sched rung's executors add up to over the
// rounds.
type execLedger struct {
	busy       time.Duration
	dispatches int
	rows       int       // once per stage
	waits      []float64 // submit → first dispatch, µs, one per stage-0 dispatch
	waitRows   []int     // the rows of that dispatch
}

// timedExec is the sched.StageExecutor the sched rungs run: the served
// model behind a stopwatch, doing exactly what core's own adapter does
// besides. Like any executor it belongs to one worker goroutine; the
// ladder reads it only between submissions.
type timedExec struct {
	m   stageModel
	res []sched.StageResult
	// submitted is when the caller handed the current rows to Live.
	submitted *atomic.Int64
	execLedger
}

func (e *timedExec) ExecStageBatch(hidden [][]float64, stage int, dst [][]float64) ([][]float64, []sched.StageResult) {
	start := time.Now()
	if stage == 0 {
		e.waits = append(e.waits, us(time.Duration(start.UnixNano()-e.submitted.Load())))
		e.waitRows = append(e.waitRows, len(hidden))
	}
	next, outs := e.m.ExecStageBatch(hidden, stage, dst)
	e.res = e.res[:0]
	for _, o := range outs {
		e.res = append(e.res, sched.StageResult{Pred: o.Pred, Conf: o.Conf})
	}
	e.busy += time.Since(start)
	e.dispatches++
	e.rows += len(hidden)
	return next, e.res
}

func (e *timedExec) NumStages() int { return e.m.NumStages() }

// timedLive is a sched.Live over timedExecs, one per model.
type timedLive struct {
	live      *sched.Live
	execs     []*timedExec
	submitted atomic.Int64
}

func newTimedLive(ms *snapshot.ModelSnapshot, cfg core.Config, models ...*staged.Model) (*timedLive, error) {
	tl := &timedLive{}
	execs := make([]sched.StageExecutor, len(models))
	for i, m := range models {
		e := &timedExec{m: m, submitted: &tl.submitted}
		tl.execs = append(tl.execs, e)
		execs[i] = e
	}
	var err error
	tl.live, err = sched.NewLive(sched.LiveConfig{
		Workers: len(models), Deadline: cfg.Deadline, QueueDepth: cfg.QueueDepth,
	}, sched.NewGreedy(cfg.Lookahead, ms.Pred, "RTDeepIoT"), execs)
	return tl, err
}

func (tl *timedLive) submitBatch(ctx context.Context, inputs [][]float64, stages int) error {
	tl.submitted.Store(time.Now().UnixNano())
	_, err := tl.live.SubmitBatch(ctx, inputs, stages)
	return err
}

// rung is one timed step of the ladder; run executes it once.
type rung struct {
	name    string
	run     func() error
	samples []float64 // µs per timed run
	total   float64   // µs over every run, timed or not
}

// time runs the rung twice and times the second run: whichever rung
// runs first after another would otherwise pay for reloading its
// weights, and the differences between rungs would measure the cache.
func (r *rung) time() (timed float64, err error) {
	first := time.Now()
	if err := r.run(); err != nil {
		return 0, err
	}
	start := time.Now()
	err = r.run()
	end := time.Now()
	r.total += us(end.Sub(first))
	return us(end.Sub(start)), err
}

// allocsPer reports heap allocations per row of n runs of fn.
func allocsPer(fn func() error, n, rowsPerRun int) (float64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n*rowsPerRun), nil
}

// medianOf times fn n times and returns the median in ms.
func medianOf(n int, fn func() error) (float64, error) {
	var v []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		v = append(v, ms(time.Since(start)))
	}
	return median(v), nil
}

// singles is how many single-row calls a single-row rung makes per run.
const singles = 8

// gemmsPerPass is how many trunk GEMMs one 3-stage pass makes: 2 blocks
// of 2 layers in each of 3 stages.
const gemmsPerPass = modelStages * modelBlocks * 2

// ladderResult is what the ladder yields: per-layer metrics, the rung
// times for the report, and the first rung that took less than the one
// below it by more than rungTolerance ("" when none did).
type ladderResult struct {
	metrics  map[string]float64
	report   []string
	inverted string
}

// rig is what lasts the whole ladder: the bundle, the GEMM operands and
// the f32 model (whose rungs are not part of the ladder).
type rig struct {
	snap          []byte
	ms            *snapshot.ModelSnapshot
	stages        int
	a64, b64, d64 *tensor.Matrix
	a32, b32, d32 *tensor.Matrix32
	f32           *staged.Frozen32
	cfg           core.Config
}

func newRig(snap []byte) (*rig, error) {
	ms, err := snapshot.DecodeModel(bytes.NewReader(snap))
	if err != nil {
		return nil, err
	}
	r := &rig{snap: snap, ms: ms, stages: ms.Model.NumStages(), cfg: findWorkload("batch_direct").coreConfig()}
	r.cfg.Workers = 1
	r.cfg.Admission = false
	// The ladder times costs, not deadlines: no rung may be cut because
	// the host (or the race detector) is slow.
	r.cfg.Deadline = 10 * time.Second

	rng := rand.New(rand.NewSource(modelSeed))
	r.a64, r.b64, r.d64 = tensor.NewMatrix(ladderBatch, modelHidden), tensor.NewMatrix(modelHidden, modelHidden), tensor.NewMatrix(ladderBatch, modelHidden)
	for i := range r.a64.Data {
		r.a64.Data[i] = rng.NormFloat64()
	}
	for i := range r.b64.Data {
		r.b64.Data[i] = rng.NormFloat64()
	}
	r.a32, r.b32, r.d32 = tensor.NewMatrix32(ladderBatch, modelHidden), tensor.NewMatrix32(modelHidden, modelHidden), tensor.NewMatrix32(ladderBatch, modelHidden)
	tensor.Narrow(r.a32.Data, r.a64.Data)
	tensor.Narrow(r.b32.Data, r.b64.Data)
	r.f32, err = staged.Freeze32(ms.Model)
	return r, err
}

// steps is what the rungs of one round call into, all of it serving the
// same bundle: m is a fresh clone of the model, which the staged rung
// runs directly and the one-worker pools run behind their stopwatches;
// svc is a fresh service, which the core rung calls and the handler,
// the loopback server and the router sit on.
type steps struct {
	m              *staged.Model
	live, one      *timedLive // batches on one worker; single rows
	two            *timedLive // batches on two workers
	svc            *core.Service
	handler        *service.Server
	direct, routed *service.Client
	closers        []func()
}

func (st *steps) close() {
	for i := len(st.closers) - 1; i >= 0; i-- {
		st.closers[i]()
	}
}

func (r *rig) newSteps(ctx context.Context) (_ *steps, err error) {
	st := &steps{m: r.ms.Model.Clone()}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	for _, l := range []struct {
		dst    **timedLive
		models []*staged.Model
	}{{&st.live, []*staged.Model{st.m}}, {&st.one, []*staged.Model{st.m}}, {&st.two, []*staged.Model{st.m, r.ms.Model.Clone()}}} {
		if *l.dst, err = newTimedLive(r.ms, r.cfg, l.models...); err != nil {
			return nil, err
		}
		st.closers = append(st.closers, (*l.dst).live.Stop)
	}
	if st.svc, err = core.NewService(r.cfg); err != nil {
		return nil, err
	}
	st.closers = append(st.closers, st.svc.Close)
	if err = st.svc.InstallSnapshotBytes(modelName, r.snap); err != nil {
		return nil, err
	}
	st.handler = service.NewServer(st.svc)
	srv := httptest.NewServer(st.handler)
	st.closers = append(st.closers, srv.Close)
	st.direct = service.NewClient(srv.URL)
	router, err := cluster.New(cluster.Config{Nodes: []string{srv.URL}, Logf: func(string, ...any) {}})
	if err != nil {
		return nil, err
	}
	router.Start(ctx)
	st.closers = append(st.closers, router.Close)
	front := httptest.NewServer(router)
	st.closers = append(st.closers, front.Close)
	st.routed = service.NewClient(front.URL)
	return st, nil
}

// serve answers one pre-encoded request in process and reports the
// bytes that crossed the handler, both ways.
func (st *steps) serve(path string, body []byte) (int, error) {
	rec := httptest.NewRecorder()
	st.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		return 0, fmt.Errorf("handler answered %d: %s", rec.Code, rec.Body.String())
	}
	return len(body) + rec.Body.Len(), nil
}

// chain runs inputs through every stage of m as one group.
func (r *rig) chain(m stageModel, inputs [][]float64) {
	h := inputs
	for s := 0; s < r.stages; s++ {
		h, _ = m.ExecStageBatch(h, s, nil)
	}
}

// runLadder measures every rung for about budget, in rounds: a round
// runs each rung in turn on the same rows, and a rung's time is the
// median over the rounds. The times are the clock's: the ladder's one
// caller leaves a CPU idle, and the two-lane probe after an idle spell
// reads the host's wake-up, not its speed.
func runLadder(ctx context.Context, c *corpus, snap []byte, budget time.Duration) (*ladderResult, error) {
	r, err := newRig(snap)
	if err != nil {
		return nil, err
	}

	// The rows and the steps of the current round.
	var (
		st        *steps
		inputs    [][]float64
		batchBody []byte
		oneBody   []byte
		wireBytes int
	)
	eachSingle := func(fn func(x []float64) error) func() error {
		return func() error {
			for _, x := range inputs[:singles] {
				if err := fn(x); err != nil {
					return err
				}
			}
			return nil
		}
	}
	batchPath := "/v1/models/" + modelName + "/infer-batch"
	onePath := "/v1/models/" + modelName + "/infer"

	tensor64 := &rung{name: "tensor f64", run: func() error {
		for i := 0; i < gemmsPerPass; i++ {
			tensor.MatMulT(r.d64, r.a64, r.b64)
		}
		return nil
	}}
	tensor32 := &rung{name: "tensor f32", run: func() error {
		for i := 0; i < gemmsPerPass; i++ {
			tensor.MatMulT32(r.d32, r.a32, r.b32)
		}
		return nil
	}}
	staged64 := &rung{name: "staged f64", run: func() error { r.chain(st.m, inputs); return nil }}
	staged32 := &rung{name: "staged f32", run: func() error { r.chain(r.f32, inputs); return nil }}
	sched1 := &rung{name: "sched", run: func() error { return st.live.submitBatch(ctx, inputs, r.stages) }}
	sched2 := &rung{name: "sched w2", run: func() error { return st.two.submitBatch(ctx, inputs, r.stages) }}
	coreB := &rung{name: "core", run: func() error { _, err := st.svc.InferBatch(ctx, modelName, inputs); return err }}
	handlerB := &rung{name: "handler", run: func() (err error) { wireBytes, err = st.serve(batchPath, batchBody); return err }}
	clientB := &rung{name: "client", run: func() error { _, err := st.direct.InferBatch(ctx, modelName, inputs); return err }}
	clusterB := &rung{name: "cluster", run: func() error { _, err := st.routed.InferBatch(ctx, modelName, inputs); return err }}

	schedS := &rung{name: "sched", run: eachSingle(func(x []float64) error {
		_, err := st.one.live.Submit(ctx, x, r.stages)
		return err
	})}
	coreS := &rung{name: "core", run: eachSingle(func(x []float64) error { _, err := st.svc.Infer(ctx, modelName, x); return err })}
	handlerS := &rung{name: "handler", run: eachSingle(func([]float64) error { _, err := st.serve(onePath, oneBody); return err })}
	clientS := &rung{name: "client", run: eachSingle(func(x []float64) error { _, err := st.direct.Infer(ctx, modelName, x); return err })}
	clusterS := &rung{name: "cluster", run: eachSingle(func(x []float64) error { _, err := st.routed.Infer(ctx, modelName, x); return err })}

	// The f64 ladders, bottom to top; the f32 and two-worker variants are
	// timed in the same rounds but are not rungs.
	batchLadder := []*rung{tensor64, staged64, sched1, coreB, handlerB, clientB, clusterB}
	singleLadder := []*rung{schedS, coreS, handlerS, clientS, clusterS}
	all := append(append([]*rung{tensor32, staged32, sched2}, batchLadder...), singleLadder...)

	// ledger is the sched rung's executor over the measured rounds.
	var ledger execLedger
	round := func(k int, keep bool) error {
		inputs = inputs[:0]
		for i := 0; i < ladderBatch; i++ {
			inputs = append(inputs, c.pool[(k*ladderBatch+i)%len(c.pool)])
		}
		var err error
		if batchBody, err = json.Marshal(service.InferBatchRequest{Inputs: inputs}); err != nil {
			return err
		}
		if oneBody, err = json.Marshal(service.InferRequest{Input: inputs[0]}); err != nil {
			return err
		}
		if st, err = r.newSteps(ctx); err != nil {
			return err
		}
		defer st.close()
		// Whichever of two like rungs runs second is 5 % faster here (the
		// host takes longer than one priming run to settle into a new
		// pattern of work), so the rounds alternate between bottom-up and
		// top-down and every rung is as often before its neighbour as
		// after it.
		timed := make([]float64, len(all))
		for j := range all {
			i := j
			if k%2 == 1 {
				i = len(all) - 1 - j
			}
			if timed[i], err = all[i].time(); err != nil {
				return fmt.Errorf("ladder rung %s: %w", all[i].name, err)
			}
		}
		if !keep {
			for _, rg := range all {
				rg.total = 0
			}
			return nil
		}
		for i, rg := range all {
			rg.samples = append(rg.samples, timed[i])
		}
		e := &st.live.execs[0].execLedger
		ledger.busy += e.busy
		ledger.dispatches += e.dispatches
		ledger.rows += e.rows
		ledger.waits = append(ledger.waits, e.waits...)
		ledger.waitRows = append(ledger.waitRows, e.waitRows...)
		return nil
	}
	// One round unmeasured (arenas, connection pools), then at least one
	// pair of measured rounds, one in each direction.
	if err := round(0, false); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(budget)
	for k := 1; k <= 2 || k%2 == 0 || time.Now().Before(deadline); k++ {
		if err := round(k, true); err != nil {
			return nil, err
		}
	}
	// A rung's time is the median over the pairs of rounds of the pair's
	// mean: the mean cancels the order of the rungs, the median outvotes
	// the rounds the host stalled in.
	for _, rg := range all {
		pairs := rg.samples[:0]
		for i := 0; i+1 < len(rg.samples); i += 2 {
			pairs = append(pairs, (rg.samples[i]+rg.samples[i+1])/2)
		}
		rg.samples = pairs
	}

	perRow := func(rg *rung) float64 { return median(rg.samples) / ladderBatch }
	perCall := func(rg *rung) float64 { return median(rg.samples) / singles }
	// A layer's self time is the median over the pairs of rounds of its
	// rung minus the rung below in the same pair: what the host did to
	// both drops out.
	self := func(upper, lower *rung, per float64) float64 {
		d := make([]float64, len(upper.samples))
		for i := range d {
			d[i] = (upper.samples[i] - lower.samples[i]) / per
		}
		return median(d)
	}
	const gemmFLOP = 2 * ladderBatch * modelHidden * modelHidden * gemmsPerPass
	out := map[string]float64{
		"tensor.gemm_f64_gflops":          gemmFLOP / (median(tensor64.samples) * 1e3),
		"tensor.gemm_f32_gflops":          gemmFLOP / (median(tensor32.samples) * 1e3),
		"staged.exec_f64_us_per_row":      perRow(staged64),
		"staged.exec_f32_us_per_row":      perRow(staged32),
		"core.self_us_per_row":            self(coreB, sched1, ladderBatch),
		"service.handler_self_us_per_row": self(handlerB, coreB, ladderBatch),
		"client.self_us_per_row":          self(clientB, handlerB, ladderBatch),
		"cluster.hop_us_per_row":          self(clusterB, clientB, ladderBatch),
		"sched.w2_over_w1":                median(sched1.samples) / median(sched2.samples),
		"sched.submit_single_us":          perCall(schedS),
		"core.infer_single_self_us":       self(coreS, schedS, singles),
		"service.handler_single_self_us":  self(handlerS, coreS, singles),
		"client.single_self_us":           self(clientS, handlerS, singles),
		"cluster.hop_single_us":           self(clusterS, clientS, singles),
		"service.wire_bytes_per_row":      float64(wireBytes) / ladderBatch,
	}

	// The sched rung's own ledger: of the time Live held the
	// batches, what its executor was not busy for is the scheduler's. The
	// executor counts a row once per stage.
	rows := float64(ledger.rows) / float64(r.stages)
	out["sched.self_us_per_row"] = (sched1.total - us(ledger.busy)) / rows
	out["sched.exec_busy_share"] = us(ledger.busy) / sched1.total
	out["sched.group_rows_mean"] = float64(ledger.rows) / float64(ledger.dispatches)
	out["sched.dispatches_per_krow"] = float64(ledger.dispatches) / rows * 1000
	// Per row: a dispatch's wait is every one of its rows' wait.
	var waits []float64
	for i, wait := range ledger.waits {
		for n := ledger.waitRows[i]; n > 0; n-- {
			waits = append(waits, wait)
		}
	}
	sort.Float64s(waits)
	out["sched.queue_wait_p50_us"] = quantile(waits, 0.5)

	if st, err = r.newSteps(ctx); err != nil {
		return nil, err
	}
	defer st.close()
	const allocRuns = 10
	for name, rg := range map[string]*rung{
		"staged.allocs_per_row": staged64, "sched.allocs_per_row": sched1,
		"service.allocs_per_row": handlerB, "client.allocs_per_row": clientB,
	} {
		if out[name], err = allocsPer(rg.run, allocRuns, ladderBatch); err != nil {
			return nil, err
		}
	}
	if err := r.sideCosts(out, st.svc); err != nil {
		return nil, err
	}

	res := &ladderResult{metrics: out}
	climb := func(rungs []*rung, unit string, per func(*rung) float64) {
		names, ratios := make([]string, len(rungs)), make([]float64, len(rungs))
		for i, rg := range rungs {
			names[i], ratios[i] = rg.name, 1
			if i > 0 {
				r := make([]float64, len(rg.samples))
				for p := range r {
					r[p] = rg.samples[p] / rungs[i-1].samples[p]
				}
				ratios[i] = median(r)
			}
			res.report = append(res.report, fmt.Sprintf("%-10s %9.2f %s, %.3f of the rung below", names[i], per(rg), unit, ratios[i]))
		}
		if res.inverted == "" {
			res.inverted = firstInversion(names, ratios, rungTolerance)
		}
	}
	climb(batchLadder, "us/row", perRow)
	climb(singleLadder, "us/single", perCall)
	return res, nil
}

// firstInversion names the first rung, bottom to top, whose time as a
// share of the rung under it (the median over the pairs of rounds of
// their ratio in the same pair) is more than tolerance below 1; "" when
// none is.
func firstInversion(names []string, ratios []float64, tolerance float64) string {
	for i := 1; i < len(ratios); i++ {
		if ratios[i] < 1-tolerance {
			return fmt.Sprintf("%s takes %.3f of the time of %s under it", names[i], ratios[i], names[i-1])
		}
	}
	return ""
}

// sideCosts times what is off the request path's ladder: the device
// tracker (one write; one policy read on a device with history) and the
// snapshot codec (what a replica install costs on either side).
func (r *rig) sideCosts(out map[string]float64, svc *core.Service) error {
	tracker, err := cache.NewFreqTracker(modelClasses, 0.999)
	if err != nil {
		return err
	}
	const observes = 200000
	start := time.Now()
	for i := 0; i < observes; i++ {
		tracker.Observe(i % modelClasses)
	}
	out["cache.observe_ns"] = float64(time.Since(start)) / observes
	for i := 0; i < 200; i++ {
		if err := svc.Observe("ladder-device", modelName, i%modelClasses, 1); err != nil {
			return err
		}
	}
	const decisions = 2000
	start = time.Now()
	for i := 0; i < decisions; i++ {
		if _, err := svc.CacheDecision("ladder-device"); err != nil {
			return err
		}
	}
	out["cache.decision_us"] = us(time.Since(start)) / decisions

	if out["snapshot.encode_ms"], err = medianOf(setupReps, func() error {
		_, err := svc.SnapshotBytes(modelName)
		return err
	}); err != nil {
		return err
	}
	out["snapshot.install_ms"], err = medianOf(setupReps, func() error {
		fresh, err := core.NewService(r.cfg)
		if err != nil {
			return err
		}
		defer fresh.Close()
		return fresh.InstallSnapshotBytes(modelName, r.snap)
	})
	return err
}
