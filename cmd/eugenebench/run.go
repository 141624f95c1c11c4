package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"eugene/internal/tensor"
)

// plan is the shape of one run. The command always uses defaultPlan;
// the smoke test shrinks it.
type plan struct {
	// measure is how long the measured windows and the probes between
	// them may take in all.
	measure time.Duration
	// scale shrinks every window: an open loop's length and a closed
	// loop's number of calls.
	scale     float64
	warmup    int // windows driven and discarded first
	setupReps int
	// ladder is the time the traced run gives the ladder.
	ladder time.Duration
	outDir string // where the traced run writes its spans
	// reuse, when set, is served instead of training a model per set-up
	// and checked against instead of building an oracle: the smoke test
	// provisions once for all its runs.
	reuse *provisioned
}

// provisioned is a trained bundle and the reference answers for it.
type provisioned struct {
	snap []byte
	o    *oracle
}

func provision(c *corpus) (*provisioned, error) {
	snap, err := trainSnapshot(c)
	if err != nil {
		return nil, err
	}
	o, err := newOracle(c, snap)
	return &provisioned{snap: snap, o: o}, err
}

// defaultPlan fits a run into seconds of measurement: untraced, all of
// it is windows; traced, three tenths go to the ladder and the rest to
// windows in which tracing is on during every second tenth of a second.
func defaultPlan(seconds int, traced bool) plan {
	p := plan{measure: time.Duration(seconds) * time.Second, scale: 1, warmup: warmupWindows, setupReps: setupReps, outDir: filepath.Join("bench", "out")}
	if traced {
		p.setupReps = 1
		p.warmup = 1
		p.ladder = p.measure * 3 / 10
		p.measure -= p.ladder
	}
	return p
}

// errInvalid marks a run whose numbers would not measure the program.
var errInvalid = errors.New("invalid run")

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// counters are the program's own counts at one instant.
type counters struct {
	submitted, expired, rejected uint64
	proxied, failovers           uint64
	allocBytes                   uint64
}

func (st *stack) counters() counters {
	var c counters
	for _, svc := range st.services() {
		if s, ok := svc.Stats()[modelName]; ok {
			c.submitted += s.Submitted
			c.expired += s.Expired
			c.rejected += s.Rejected
		}
	}
	if st.router != nil {
		rs := st.router.Status()
		c.proxied, c.failovers = rs.Proxied, rs.Failovers
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	c.allocBytes = m.TotalAlloc
	return c
}

// describe echoes the seed and every frozen size, rate and deadline.
func describe(out io.Writer, w *workload, seed int64, p plan, traced bool, procs int) {
	fmt.Fprintf(out, "eugenebench workload=%s seed=%d trace=%v\n", w.name, seed, traced)
	fmt.Fprintf(out, "  model: dim=%d hidden=%d stages=%d blocks=%d classes=%d model_seed=%d train_rows=%d epochs=%d calib_rows=%d pool_rows=%d\n",
		modelDim, modelHidden, modelStages, modelBlocks, modelClasses, modelSeed, trainRows, trainEpochs, calibRows, poolRows)
	fmt.Fprintf(out, "  stack: replicas=%d workers=%d deadline=%v admission=%v limit=%v\n", w.replicas, w.workers, w.deadline, w.admission, w.limit)
	if w.open() {
		fmt.Fprintf(out, "  load: open loop rate=%g/s devices=%d batch=%d mix=%+v senders=%d window=%v\n", w.rate, w.devices, w.openBatch, w.mix, openSenders, window)
	} else {
		fmt.Fprintf(out, "  load: closed loop callers=%d batch=%d calls_per_window=%d bulk=%d every=%d\n", w.callers, w.batch, w.windowCalls, w.bulk, w.bulkEvery)
	}
	fmt.Fprintf(out, "  run: setups=%d warmup_windows=%d measure=%v window_scale=%g ladder=%v probe=%v ref_speed=%g nproc=%d gomaxprocs=%d\n",
		p.setupReps, p.warmup, p.measure, p.scale, p.ladder, probeSlice, refSpeed, runtime.NumCPU(), procs)
}

// measured is what the warm-up and the windows yield.
type measured struct {
	windows    []windowStat
	begin, end counters // before the first and after the last window
}

// measure drives the warm-up windows and then windows until p.measure
// has passed, with a probe between every two. In a traced run the
// tracer is armed for the measured windows.
func measure(ctx context.Context, d *driver, g *generator, pb *probe, p plan) (*measured, error) {
	// A stack that stops answering must fail the run, not hang it.
	ctx, cancel := context.WithTimeout(ctx, p.measure+time.Minute)
	defer cancel()
	drive := d.closed
	if d.st.w.open() {
		drive = d.open
	}
	for i := 0; i < p.warmup; i++ {
		reqs, span := g.window()
		drive(ctx, reqs, span)
	}
	var m measured
	m.begin = d.st.counters()
	rss := startRSS()
	d.tr.start(time.Now())
	start := time.Now()
	speed := pb.run(probeSlice)
	var shortest time.Duration
	for {
		reqs, span := g.window()
		d.tr.arm(true)
		rss.take() // what the gap between windows peaked at is not a window's
		cpu0, err := cpuTime()
		if err != nil {
			rss.close()
			return nil, err
		}
		calls, dur := drive(ctx, reqs, span)
		cpu1, err := cpuTime()
		if err != nil {
			rss.close()
			return nil, err
		}
		d.tr.arm(false)
		peak := rss.take()
		next := pb.run(probeSlice)
		m.windows = append(m.windows, score(calls, dur, (speed+next)/2/refSpeed, cpu1-cpu0, peak))
		speed = next
		if shortest == 0 || dur < shortest {
			shortest = dur
		}
		// Stop when another window would not fit. The shortest window so
		// far is what a window takes; one the host froze in must not end
		// the run seconds early.
		if left := p.measure - time.Since(start); left < shortest+probeSlice {
			break
		}
	}
	m.end = d.st.counters()
	return &m, rss.close()
}

// tracedWindows adds to v the per-layer metrics that come from the
// workload's own windows: the program's counters before the first and
// after the last, the spans, and the cost of tracing.
func tracedWindows(v map[string]float64, m *measured, all *tally, tr *tracer) {
	begin, end := m.begin, m.end
	submitted := float64(end.submitted - begin.submitted)
	rejected := float64(end.rejected - begin.rejected)
	v["sched.expired_share"] = float64(end.expired-begin.expired) / max(1, submitted)
	v["sched.rejected_share"] = rejected / max(1, submitted+rejected)
	link(tr.spans, "replica", "router")
	link(tr.spans, "router", "call")
	v["cluster.hop_share_p50"] = quantile(hopShares(tr.spans), 0.5)
	v["cluster.pinned_p50_ms"] = quantile(all.latByKind[kindPinned], 0.5)
	v["cluster.anon_p50_ms"] = quantile(all.latByKind[kindAnon], 0.5)
	v["cluster.proxied_per_req"] = float64(end.proxied-begin.proxied) / float64(all.calls)
	v["cluster.failovers"] = float64(end.failovers - begin.failovers)
	v["bench.gen_late_p95_ms"] = quantile(all.late, 0.95)
	v["bench.alloc_kb_per_row"] = float64(end.allocBytes-begin.allocBytes) / 1024 / float64(all.rows)
	v["bench.host_speed_share"] = all.speed
	// What tracing costs: how much longer the median call sent while the
	// tracer recorded took than the median call sent while it did not. In
	// a closed loop that is the throughput lost as well.
	v["bench.trace_overhead_share"] = quantile(all.latTraced, 0.5)/quantile(all.latPlain, 0.5) - 1
}

// run executes one workload once and writes the report to out.
func run(ctx context.Context, out io.Writer, w *workload, seed int64, p plan, traced bool) (*result, error) {
	procs := min(runtime.NumCPU(), maxProcs)
	runtime.GOMAXPROCS(procs)
	tensor.SetParallelism(procs)
	if !w.open() && w.callers > runtime.NumCPU() {
		return nil, fmt.Errorf("%w: %d closed-loop callers on %d CPUs would time the OS scheduler", errInvalid, w.callers, runtime.NumCPU())
	}
	describe(out, w, seed, p, traced, procs)

	c, err := newCorpus()
	if err != nil {
		return nil, err
	}
	pb := newProbe(procs)
	pb.run(probeSlice) // the lanes' pages, touched once
	var tr *tracer
	if traced {
		tr = &tracer{}
	}
	var (
		st     *stack
		snap   []byte
		setups []float64
	)
	for i := 0; i < p.setupReps; i++ {
		if st != nil {
			st.close()
		}
		var took time.Duration
		if st, snap, took, err = setup(ctx, c, w, tr, p.reuse); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	defer st.close()
	var o *oracle
	if p.reuse != nil {
		o = p.reuse.o
	} else if o, err = newOracle(c, snap); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "  oracle: accuracy by stage %.4f\n", o.accuracy())
	g := newGenerator(w, c, seed, p.scale)
	// Cache-decision reads need a tracker to read: every device sends one
	// tagged row before anything is timed.
	for _, dev := range g.devices {
		if _, err := st.infer(ctx, dev, c.pool[0]); err != nil {
			return nil, fmt.Errorf("seeding device %s: %w", dev, err)
		}
	}

	var lad *ladderResult
	if traced {
		if lad, err = runLadder(ctx, c, snap, p.ladder); err != nil {
			return nil, err
		}
	}

	// Return set-up's garbage to the OS so peak_rss_mb is serving's.
	debug.FreeOSMemory()

	d := &driver{st: st, o: o, tr: tr}
	m, err := measure(ctx, d, g, pb, p)
	if err != nil {
		return nil, err
	}
	if d.firstFail != nil {
		fmt.Fprintf(out, "  first failure: %v\n", d.firstFail)
	}
	for k := range m.windows {
		ws := &m.windows[k]
		fmt.Fprintf(out, "  window %2d: %.3fs host_speed=%.3f calls=%d rows=%d met=%d p50=%.3fms p95=%.3fms cpu=%.3fs rss=%.1fMiB\n",
			k+1, ws.dur.Seconds(), ws.speed, ws.calls, ws.offered, ws.met, quantile(ws.lat, 0.5), quantile(ws.lat, 0.95), ws.cpu.Seconds(), ws.rss)
	}
	all := summarize(w, m.windows)
	fmt.Fprintf(out, "  calls: sent=%d refused=%d failed=%d; rows: offered=%d met=%d correct=%d wrong=%d; windows=%d thin_windows=%d\n",
		all.calls, all.refused, all.failed, all.rows, all.met, all.correct, all.wrongRows, all.windows, all.thinWindows)
	fmt.Fprintf(out, "  by the clock: setup=%.3f s goodput=%.1f rows/s p50=%.3f ms p95=%.3f ms cpu=%.5f s/krow; host_speed=%.3f of the reference\n",
		median(setups), all.rawGoodput, all.rawP50, all.rawP95, all.rawCPUPerKrow, all.speed)
	if mid := quantile(all.late, 0.5); w.open() && mid > ms(genLateLimit) {
		return nil, fmt.Errorf("%w: the generator's median lateness was %.3f ms (limit %v)", errInvalid, mid, genLateLimit)
	}

	res := &result{
		Correct:   all.wrongRows == 0 && all.failed == 0 && all.refused == 0,
		Attempted: all.calls,
		Failed:    all.failed + all.refused,
		Metrics:   make(map[string]metric),
	}
	emit := func(defs []metricDef, values map[string]float64) error {
		for _, def := range defs {
			v := values[def.name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%w: %s is %v", errInvalid, def.name, v)
			}
			res.Metrics[def.name] = metric{Value: v, Unit: def.unit}
			fmt.Fprintf(out, "%-34s %14.6f %s\n", def.name, v, def.unit)
		}
		return nil
	}
	if !traced {
		return res, emit(endToEnd, map[string]float64{
			// A set-up is seconds of training that no 50 ms probe beside
			// it predicts; what the probes do tell is which of its speeds
			// the host ran at during this run.
			"setup_s":        median(setups) * all.speed,
			"goodput_rps":    all.goodput,
			"latency_p50_ms": all.p50,
			"latency_p95_ms": all.p95,
			"slo_met_share":  all.sloShare,
			"utility_share":  all.utilShare,
			"cpu_s_per_krow": all.cpuPerKrow,
			"peak_rss_mb":    all.peakRSS,
		})
	}

	for _, line := range lad.report {
		fmt.Fprintf(out, "  ladder: %s\n", line)
	}
	v := lad.metrics
	tracedWindows(v, m, all, tr)
	if err := emit(perLayer, v); err != nil {
		return nil, err
	}
	path := filepath.Join(p.outDir, w.name+"-spans.jsonl")
	if err := tr.write(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(out, "  spans: %d written to %s\n", len(tr.spans), path)
	// The trace's own acceptance is reported, not enforced: per-layer
	// numbers carry no bound, and on a shared host one run in some dozens
	// has a rung a tenth below its neighbour for reasons that are the
	// host's. A traced run that exited non-zero for that would fail the
	// whole check it is part of.
	if lad.inverted != "" {
		fmt.Fprintf(out, "  warning: the ladder is not monotone: %s\n", lad.inverted)
	}
	if o := v["bench.trace_overhead_share"]; o > traceOverheadLimit {
		fmt.Fprintf(out, "  warning: traced calls took %.3f longer than untraced ones (limit %g)\n", o, traceOverheadLimit)
	}
	return res, nil
}
