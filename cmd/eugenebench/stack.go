package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"eugene/internal/calib"
	"eugene/internal/cluster"
	"eugene/internal/core"
	"eugene/internal/dataset"
	"eugene/internal/sched"
	"eugene/internal/service"
	"eugene/internal/snapshot"
	"eugene/internal/staged"
)

// corpus is the frozen row universe: what the model is trained and
// calibrated on, and the pool every request row is drawn from.
type corpus struct {
	train, calib *dataset.Set
	pool         [][]float64
	labels       []int
}

func newCorpus() (*corpus, error) {
	train, test, err := dataset.SynthCIFAR(dataset.SynthConfig{
		Classes: modelClasses, Dim: modelDim, ModesPerClass: 2,
		TrainSize: trainRows, TestSize: calibRows + poolRows,
		NoiseLo: 0.4, NoiseHi: 1.0, Overlap: 0.1,
	}, modelSeed)
	if err != nil {
		return nil, fmt.Errorf("generating corpus: %w", err)
	}
	calibSet, poolSet := test.Split(calibRows)
	c := &corpus{train: train, calib: calibSet, labels: poolSet.Labels, pool: make([][]float64, poolSet.Len())}
	for i := range c.pool {
		c.pool[i], _ = poolSet.Sample(i)
	}
	return c, nil
}

// trainSnapshot runs the paper's provisioning pipeline — train,
// calibrate, fit the confidence predictor — on a scratch service and
// returns the model bundle a serving fleet installs.
func trainSnapshot(c *corpus) ([]byte, error) {
	svc, err := core.NewService(core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	opts := core.DefaultTrainOptions(modelDim, modelClasses)
	opts.Model.Hidden = modelHidden
	opts.Model.StageCount = modelStages
	opts.Model.BlocksPerStage = modelBlocks
	// Thin early heads give the exits an accuracy-versus-depth gradient
	// after a set-up-sized training run (the header prints the pool's
	// accuracy by stage): utility_share then falls when rows are cut
	// early, which it would not if every exit were equally good.
	opts.Model.HeadBottlenecks = []int{8, 12, 0}
	opts.Model.HeadDropout = 0
	opts.Train.Epochs = trainEpochs
	opts.Train.BatchSize = trainBatch
	opts.Seed = modelSeed
	if _, err := svc.Train(modelName, c.train, opts); err != nil {
		return nil, err
	}
	if _, err := svc.Calibrate(modelName, c.calib, calib.DefaultEntropyCalibConfig()); err != nil {
		return nil, err
	}
	if err := svc.BuildPredictor(modelName, c.calib, sched.DefaultGPPredictorConfig()); err != nil {
		return nil, err
	}
	return svc.SnapshotBytes(modelName)
}

// answer is one row's response, whichever path it came back on.
type answer struct {
	pred, stages int
	conf         float64
	expired      bool
}

type replica struct {
	svc *core.Service
	srv *httptest.Server
}

// stack is one workload's serving system: a core.Service called in
// process, or replicas behind a router called through service.Client,
// all in this process on loopback listeners.
type stack struct {
	w        *workload
	direct   *core.Service
	replicas []replica
	router   *cluster.Router
	front    *httptest.Server
	client   *service.Client
}

func (w *workload) coreConfig() core.Config {
	return core.Config{
		Workers: w.workers, Deadline: w.deadline, Admission: w.admission, Lookahead: 1,
		// One batch may not exceed the queue depth.
		QueueDepth: max(256, w.bulk),
	}
}

// newStack installs snap on a fresh serving system for w. tr, when
// non-nil, wraps the router's and every replica's handler in spans.
func newStack(ctx context.Context, w *workload, snap []byte, tr *tracer) (_ *stack, err error) {
	st := &stack{w: w}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	if !w.routed() {
		if st.direct, err = core.NewService(w.coreConfig()); err != nil {
			return nil, err
		}
		return st, st.direct.InstallSnapshotBytes(modelName, snap)
	}
	urls := make([]string, w.replicas)
	for i := range urls {
		svc, err := core.NewService(w.coreConfig())
		if err != nil {
			return nil, err
		}
		srv := httptest.NewServer(tr.wrap("replica", service.NewServer(svc)))
		st.replicas = append(st.replicas, replica{svc: svc, srv: srv})
		urls[i] = srv.URL
	}
	if st.router, err = cluster.New(cluster.Config{Nodes: urls, Logf: func(string, ...any) {}}); err != nil {
		return nil, err
	}
	st.router.Start(ctx)
	st.front = httptest.NewServer(tr.wrap("router", st.router))
	st.client = service.NewClient(st.front.URL)
	// The router canonicalises the bundle and installs it on every
	// replica before answering.
	if err := st.client.PutSnapshot(ctx, modelName, snap); err != nil {
		return nil, fmt.Errorf("installing the model through the router: %w", err)
	}
	for _, r := range st.replicas {
		if _, err := r.svc.Entry(modelName); err != nil {
			return nil, fmt.Errorf("replica %s after install: %w", r.srv.URL, err)
		}
	}
	return st, nil
}

func (st *stack) close() {
	if st.front != nil {
		st.front.Close()
	}
	if st.router != nil {
		st.router.Close()
	}
	for _, r := range st.replicas {
		r.srv.Close()
		r.svc.Close()
	}
	if st.direct != nil {
		st.direct.Close()
	}
}

// services lists every core.Service of the stack, for counters.
func (st *stack) services() []*core.Service {
	if st.direct != nil {
		return []*core.Service{st.direct}
	}
	out := make([]*core.Service, len(st.replicas))
	for i, r := range st.replicas {
		out[i] = r.svc
	}
	return out
}

// errRefused marks a rejection (ErrOverloaded in process, 429 over
// HTTP): a refused call, counted apart from a failed one.
var errRefused = errors.New("refused (429 or ErrOverloaded)")

func classify(err error) error {
	var ov *sched.ErrOverloaded
	var se *service.ServerError
	switch {
	case err == nil:
		return nil
	case errors.As(err, &ov):
		return errRefused
	case errors.As(err, &se) && se.Status == http.StatusTooManyRequests:
		return errRefused
	}
	return err
}

// inferBatch sends one batch down the workload's path. The returned
// slice is out, grown if needed.
func (st *stack) inferBatch(ctx context.Context, inputs [][]float64, out []answer) ([]answer, error) {
	out = out[:0]
	if st.direct != nil {
		resps, err := st.direct.InferBatch(ctx, modelName, inputs)
		if err != nil {
			return out, classify(err)
		}
		for _, r := range resps {
			out = append(out, answer{pred: r.Pred, stages: r.Stages, conf: r.Conf, expired: r.Expired})
		}
		return out, nil
	}
	resps, err := st.client.InferBatch(ctx, modelName, inputs)
	if err != nil {
		return out, classify(err)
	}
	for _, r := range resps {
		out = append(out, answer{pred: r.Pred, stages: r.Stages, conf: r.Conf, expired: r.Expired})
	}
	return out, nil
}

// infer sends one row through the router, device-tagged when device is
// non-empty.
func (st *stack) infer(ctx context.Context, device string, input []float64) (answer, error) {
	var (
		r   *service.InferResponse
		err error
	)
	if device != "" {
		r, err = st.client.InferObserved(ctx, modelName, device, input)
	} else {
		r, err = st.client.Infer(ctx, modelName, input)
	}
	if err != nil {
		return answer{}, classify(err)
	}
	return answer{pred: r.Pred, stages: r.Stages, conf: r.Conf, expired: r.Expired}, nil
}

// oracle holds staged.Model.Predict's answer for every pool row at every
// stage, computed from the very bundle the stack serves.
type oracle struct {
	ref    [][]staged.StageOutput
	labels []int
}

func newOracle(c *corpus, snap []byte) (*oracle, error) {
	ms, err := snapshot.DecodeModel(bytes.NewReader(snap))
	if err != nil {
		return nil, fmt.Errorf("decoding the served bundle: %w", err)
	}
	o := &oracle{ref: make([][]staged.StageOutput, len(c.pool)), labels: c.labels}
	var wg sync.WaitGroup
	for p := 0; p < maxProcs; p++ {
		wg.Add(1)
		go func(p int, m *staged.Model) {
			defer wg.Done()
			for i := p; i < len(c.pool); i += maxProcs {
				o.ref[i] = m.Predict(c.pool[i], m.NumStages()-1)
			}
		}(p, ms.Model.Clone())
	}
	wg.Wait()
	return o, nil
}

// accuracy is the share of pool rows each stage's reference answer gets
// right.
func (o *oracle) accuracy() []float64 {
	acc := make([]float64, len(o.ref[0]))
	for row, outs := range o.ref {
		for s, out := range outs {
			if out.Pred == o.labels[row] {
				acc[s] += 1 / float64(len(o.ref))
			}
		}
	}
	return acc
}

// confTolerance admits the change in summation order when a row's
// dispatch group differs from Predict's single-row pass.
const confTolerance = 1e-9

// verdict is how one row's answer counts.
type verdict struct {
	inTime  bool // answered, and not cut by the deadline daemon (the caller adds the latency limit)
	correct bool // pred equals the label, at whichever stage the row got to
	wrong   bool // pred or conf differs from the reference at that stage
}

func (o *oracle) check(row int, a answer) verdict {
	if a.stages == 0 {
		return verdict{} // unanswered: nothing to compare, utility lost
	}
	if a.stages < 0 || a.stages > len(o.ref[row]) {
		return verdict{wrong: true}
	}
	ref := o.ref[row][a.stages-1]
	d := a.conf - ref.Conf
	if a.pred != ref.Pred || d > confTolerance || d < -confTolerance {
		return verdict{wrong: true}
	}
	return verdict{inTime: !a.expired, correct: a.pred == o.labels[row]}
}

// setup builds the model (unless one is handed in) and the workload's
// serving stack once and reports how long that took.
func setup(ctx context.Context, c *corpus, w *workload, tr *tracer, reuse *provisioned) (*stack, []byte, time.Duration, error) {
	start := time.Now()
	var snap []byte
	if reuse != nil {
		snap = reuse.snap
	} else {
		var err error
		if snap, err = trainSnapshot(c); err != nil {
			return nil, nil, 0, fmt.Errorf("provisioning the model: %w", err)
		}
	}
	st, err := newStack(ctx, w, snap, tr)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("starting the serving stack: %w", err)
	}
	return st, snap, time.Since(start), nil
}
