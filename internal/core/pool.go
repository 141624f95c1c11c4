package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"eugene/internal/sched"
	"eugene/internal/staged"
	"eugene/internal/tensor"
)

// Infer schedules one inference request on the named model's worker pool
// and blocks until it is answered or expires. The pool and scheduler are
// started lazily on first use. If the pool is torn down mid-request by a
// concurrent Calibrate/Train (Submit returns sched.ErrStopped), the
// request retries once on the freshly started pool. Infer takes
// ownership of input (no defensive copy is made); the caller must not
// mutate it after the call starts. Executors only ever read it, so the
// ErrStopped retry can safely resubmit the same slice.
func (s *Service) Infer(ctx context.Context, name string, input []float64) (sched.Response, error) {
	entry, err := s.get(name)
	if err != nil {
		return sched.Response{}, err
	}
	if err := checkWidth(name, entry.Model.In, input); err != nil {
		return sched.Response{}, err
	}
	return submit(s, name, func(live *sched.Live, stages int) (sched.Response, error) {
		return live.Submit(ctx, input, stages)
	})
}

// InferBatch schedules len(inputs) requests in one scheduler interaction
// and blocks until all are answered or expired. Responses are in input
// order; per-task expiry is reported via Response.Expired /
// Response.Unanswered, not an error. Like Infer, a pool stopped by a
// concurrent recalibration triggers one retry on the fresh pool, and
// ownership of the input slices passes to the service (no defensive
// copies; do not mutate them after the call starts).
func (s *Service) InferBatch(ctx context.Context, name string, inputs [][]float64) ([]sched.Response, error) {
	entry, err := s.get(name)
	if err != nil {
		return nil, err
	}
	for i, in := range inputs {
		if err := checkWidth(name, entry.Model.In, in); err != nil {
			return nil, fmt.Errorf("batch index %d: %w", i, err)
		}
	}
	return submit(s, name, func(live *sched.Live, stages int) ([]sched.Response, error) {
		return live.SubmitBatch(ctx, inputs, stages)
	})
}

// submit runs call on name's pool, and once more on a fresh pool if a
// concurrent publish stopped that one mid-request (sched.ErrStopped).
func submit[R any](s *Service, name string, call func(*sched.Live, int) (R, error)) (R, error) {
	live, stages, err := s.liveFor(name)
	if err != nil {
		return *new(R), err
	}
	r, err := call(live, stages)
	if errors.Is(err, sched.ErrStopped) {
		if live, stages, err = s.liveFor(name); err != nil {
			return *new(R), err
		}
		return call(live, stages)
	}
	return r, err
}

// checkWidth rejects inputs whose width does not match the model: an
// undersized sample would otherwise panic a worker goroutine mid-stage
// and take the whole process down.
func checkWidth(name string, want int, input []float64) error {
	if len(input) != want {
		return fmt.Errorf("core: model %q wants %w %d, got %d", name, ErrInputWidth, want, len(input))
	}
	return nil
}

// stageBatchModel is the contract both serving precisions share:
// staged.Frozen at float64 and at float32 execute one stage for a
// same-stage batch over caller-owned float64 hidden rows, so the
// scheduler is precision-blind.
type stageBatchModel interface {
	ExecStageBatch(hidden [][]float64, stage int, dst [][]float64) ([][]float64, []staged.StageOutput)
	NumStages() int
}

// execAdapter adapts a frozen-model clone (either precision) to
// sched.StageExecutor. Like the model's own scratch, the adapter's
// result buffer is owned by the single worker goroutine driving it.
type execAdapter struct {
	m stageBatchModel
	// tier, when non-nil, is the pool's reduced-precision (f32) tier,
	// served while the degradation gauge reads sched.DegradeTier — the
	// ladder's cheapest rung before outright rejection. alt is this
	// worker's clone of it, made at the first dispatch after the tier is
	// published. Both precisions share the float64 hidden-state
	// boundary, so switching between dispatches (even mid-task) is safe.
	tier *f32Tier
	alt  stageBatchModel
	res  []sched.StageResult
}

// model picks the serving model for this dispatch: the f32 tier under
// deep degradation once it is frozen, the primary otherwise.
func (e *execAdapter) model() stageBatchModel {
	if e.tier == nil || e.tier.degrade.Load() < sched.DegradeTier {
		return e.m
	}
	if e.alt == nil {
		f := e.tier.get()
		if f == nil {
			return e.m
		}
		e.alt = f.Clone()
	}
	return e.alt
}

// ExecStageBatch implements sched.StageExecutor: the whole group flows
// through the model as one batched forward pass, writing new hidden
// states into the worker's dst scratch rows when they fit. The returned
// slices are adapter/model scratch, valid until the next Exec call.
//
//eugene:noalloc
func (e *execAdapter) ExecStageBatch(hidden [][]float64, stage int, dst [][]float64) ([][]float64, []sched.StageResult) {
	next, outs := e.model().ExecStageBatch(hidden, stage, dst)
	if cap(e.res) < len(outs) {
		e.res = make([]sched.StageResult, len(outs))
	}
	e.res = e.res[:len(outs)]
	for i, o := range outs {
		e.res[i] = sched.StageResult{Pred: o.Pred, Conf: o.Conf}
	}
	return next, e.res
}

// NumStages implements sched.StageExecutor.
func (e *execAdapter) NumStages() int { return e.m.NumStages() }

// f32Tier is a float64 pool's degradation tier, shared by its workers.
// Most pools never reach sched.DegradeTier, so the tier is frozen only
// the first time a dispatch finds the gauge there, once per pool and on
// a goroutine of its own rather than in that dispatch, and published
// through frozen. Until then dispatches serve the float64 model, the
// ladder's level-1 behaviour.
type f32Tier struct {
	degrade *atomic.Int32
	freeze  func() (*staged.Frozen[float32], error)
	started atomic.Bool
	frozen  atomic.Pointer[staged.Frozen[float32]]
}

// get returns the frozen tier, or nil while it is not yet published; the
// first call starts the freeze. A freeze error leaves the tier nil and
// the pool on float64: the compiler's errors do not depend on the
// precision, so one the float64 freeze passed does not fail here.
func (t *f32Tier) get() *staged.Frozen[float32] {
	if f := t.frozen.Load(); f != nil {
		return f
	}
	if t.started.CompareAndSwap(false, true) {
		go func() {
			if f, err := t.freeze(); err == nil {
				t.frozen.Store(f)
			}
		}()
	}
	return nil
}

// frozenClones freezes m once at T and returns one clone per worker. The
// clones share the freeze's weights — at float64 those are m's own — so
// a pool holds one weight set whatever its size.
func frozenClones[T tensor.Float](m *staged.Model, workers int) ([]stageBatchModel, error) {
	f, err := staged.Freeze[T](m)
	if err != nil {
		return nil, err
	}
	clones := make([]stageBatchModel, workers)
	for i := range clones {
		clones[i] = f.Clone()
	}
	return clones, nil
}

// newExecs builds the executors of a pool serving m, one per worker, at
// the configured precision. With degrade set (admission control) a
// float64 pool also carries an f32Tier: when the scheduler's ladder
// reaches DegradeTier, workers serve the float32 freeze instead of
// rejecting more traffic. A model the compiler rejects (staged.Freeze)
// gets no pool at either precision: its errors are the same at both, so
// the primary's freeze stands for the tier's.
func (s *Service) newExecs(name string, m *staged.Model, degrade *atomic.Int32) ([]sched.StageExecutor, error) {
	freeze := frozenClones[float64]
	if s.cfg.Precision == PrecisionF32 {
		freeze = frozenClones[float32]
	}
	primary, err := freeze(m, s.cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("core: freezing %q for serving: %w", name, err)
	}
	var tier *f32Tier
	if degrade != nil && s.cfg.Precision != PrecisionF32 {
		tier = &f32Tier{degrade: degrade, freeze: func() (*staged.Frozen[float32], error) { return staged.Freeze[float32](m) }}
	}
	execs := make([]sched.StageExecutor, s.cfg.Workers)
	for i := range execs {
		execs[i] = &execAdapter{m: primary[i], tier: tier}
	}
	return execs, nil
}

// liveFor returns (starting if necessary) the live executor for a model.
// Entries are immutable once published, so reading entry.Model outside
// the lock is safe.
func (s *Service) liveFor(name string) (*sched.Live, int, error) {
	s.mu.RLock()
	entry, ok := s.models[name]
	live := s.serving[name]
	s.mu.RUnlock()
	if !ok {
		return nil, 0, fmt.Errorf("%w %q", ErrUnknownModel, name)
	}
	if live != nil {
		return live, entry.Model.NumStages(), nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, 0, ErrClosed
	}
	// Re-read the entry: it may have been swapped (calibration, retrain)
	// between the RLock and here, and the pool must serve the current
	// model.
	if entry, ok = s.models[name]; !ok {
		return nil, 0, fmt.Errorf("%w %q", ErrUnknownModel, name)
	}
	if live = s.serving[name]; live != nil { // raced; someone else started it
		return live, entry.Model.NumStages(), nil
	}
	var policy sched.Policy
	if entry.Pred != nil {
		policy = sched.NewGreedy(s.cfg.Lookahead, entry.Pred, fmt.Sprintf("RTDeepIoT-%d", s.cfg.Lookahead))
	} else {
		// Without a predictor the service still works; it degrades to
		// FIFO whole-task execution.
		policy = sched.NewFIFO()
	}
	var degrade *atomic.Int32
	if s.cfg.Admission {
		degrade = new(atomic.Int32)
	}
	execs, err := s.newExecs(name, entry.Model, degrade)
	if err != nil {
		return nil, 0, err
	}
	lv, err := sched.NewLive(sched.LiveConfig{
		Workers:       s.cfg.Workers,
		Deadline:      s.cfg.Deadline,
		QueueDepth:    s.cfg.QueueDepth,
		MaxBatch:      s.cfg.MaxBatch,
		Admission:     s.cfg.Admission,
		DegradeSignal: degrade,
	}, policy, execs)
	if err != nil {
		return nil, 0, fmt.Errorf("core: starting pool for %q: %w", name, err)
	}
	s.serving[name] = lv
	return lv, entry.Model.NumStages(), nil
}
