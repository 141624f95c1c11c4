// Package core is Eugene's service orchestration layer: a model registry
// that owns trained staged networks together with their calibration
// state and GP confidence predictors, and a serving engine that schedules
// inference requests over a worker pool under the RTDeepIoT policy
// (paper Sections II and III). The HTTP layer (internal/service) and the
// public API (package eugene) are thin wrappers over this package.
package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"eugene/internal/cache"
	"eugene/internal/calib"
	"eugene/internal/dataset"
	"eugene/internal/sched"
	"eugene/internal/snapshot"
	"eugene/internal/staged"
	"eugene/internal/tensor"
)

// ModelEntry is one registered model and its serving state. Published
// entries are immutable: Calibrate and BuildPredictor swap in fresh
// copies (copy-on-write) rather than mutating in place, so a reader
// holding an entry pointer can use it lock-free.
type ModelEntry struct {
	Name string
	// Model is the (calibrated, if Calibrate ran) staged network.
	Model *staged.Model
	// Alpha is the chosen entropy-regularization weight (0 if
	// uncalibrated).
	Alpha float64
	// Pred is the GP confidence predictor (nil until BuildPredictor).
	Pred *sched.GPPredictor
	// StageAccs is the last recorded per-stage evaluation accuracy.
	StageAccs []float64
}

// Config controls the serving engine.
type Config struct {
	// Workers is the inference pool size.
	Workers int
	// Deadline is the per-request latency constraint.
	Deadline time.Duration
	// QueueDepth bounds the admission queue.
	QueueDepth int
	// Lookahead is the RTDeepIoT k parameter.
	Lookahead int
	// MaxBatch caps how many same-stage tasks the scheduler coalesces
	// into one batched forward pass (0 = sched.DefaultMaxBatch, 1
	// disables batching). Larger batches raise throughput under load at
	// the cost of coarser per-dispatch deadline granularity.
	MaxBatch int
	// DataDir enables snapshot persistence: every Train, Calibrate,
	// BuildPredictor, and snapshot install atomically writes the
	// model's bundle to <DataDir>/<name>.snap, and NewService restores
	// every bundle found there, so a restarted server answers
	// bitwise-identically to the one that trained — no retraining.
	// Empty disables persistence (in-memory registry only).
	DataDir string
	// Admission enables SLO admission control and the degradation
	// ladder on every serving pool: requests whose predicted completion
	// already misses the deadline are rejected immediately with
	// sched.ErrOverloaded (HTTP 429 + Retry-After) instead of queued,
	// dispatch groups are sized by deadline slack, and under sustained
	// rejection pressure the pool sheds load — forcing earlier
	// early-exit stages and, on a float64 pool, serving the float32
	// freeze of the model — before turning clients away.
	Admission bool
	// Precision selects the element type a pool's one inference engine
	// is instantiated at. Either way the model is compiled once at pool
	// start (staged.Freeze) and every worker runs a clone of that
	// compile, sharing its weights. "f64" (or empty, the default)
	// compiles over the model's own float64 weights, no copy; "f32"
	// packs them into float32 and runs the 8-lane f32 SIMD kernels —
	// roughly half the weight/activation memory traffic and twice the
	// AVX2 arithmetic width, at a confidence accuracy easily inside
	// calibration noise. Training, calibration, and snapshots stay
	// float64 regardless.
	Precision string
}

// Precision values accepted by Config.Precision.
const (
	PrecisionF64 = "f64"
	PrecisionF32 = "f32"
)

// DefaultConfig serves with 4 workers, a 200 ms deadline, k = 1 and the
// default stage-batch cap.
func DefaultConfig() Config {
	return Config{Workers: 4, Deadline: 200 * time.Millisecond, QueueDepth: 256, Lookahead: 1}
}

// Validate reports an error for degenerate configurations.
func (c Config) Validate() error {
	if c.Workers < 1 || c.Deadline <= 0 || c.QueueDepth < 1 || c.Lookahead < 1 || c.MaxBatch < 0 {
		return fmt.Errorf("core: bad config %+v", c)
	}
	switch c.Precision {
	case "", PrecisionF64, PrecisionF32:
	default:
		return fmt.Errorf("core: precision %q must be %q or %q", c.Precision, PrecisionF64, PrecisionF32)
	}
	return nil
}

// Service is the Eugene deep-intelligence-as-a-service backend.
// All methods are safe for concurrent use.
type Service struct {
	cfg Config

	mu        sync.RWMutex
	closed    bool
	models    map[string]*ModelEntry
	serving   map[string]*sched.Live
	trainData map[string]*dataset.Set

	// snapMu serializes all snapshot disk writes (a single global
	// writer: persistence events are rare — train/calibrate/predictor —
	// so cross-model write contention is irrelevant, and the registry
	// lock is never held across disk I/O).
	snapMu sync.Mutex

	devMu   sync.Mutex
	devices map[string]*deviceState
}

// ErrClosed is returned for operations on a closed service.
var ErrClosed = errors.New("core: service closed")

// Conditions a caller (internal/service, for one) tells apart with
// errors.Is. Each text is the phrase its messages have always carried,
// so wrapping the sentinel with %w where the phrase stood leaves every
// message as it was.
var (
	ErrUnknownModel        = errors.New("core: unknown model")
	ErrUnknownDevice       = errors.New("core: unknown device")
	ErrEmptyDevice         = errors.New("core: empty device id")
	ErrInputWidth          = errors.New("input width")
	ErrClassRange          = errors.New("outside model")
	ErrLabelRange          = errors.New("core: label out of range")
	ErrInstall             = errors.New("core: installing") // snapshot decode or validation failed
	ErrCachingNotJustified = errors.New("core: caching not justified")
	ErrNoTrainingData      = errors.New("core: no training data retained")
)

// ErrBadDeviceState is returned when an imported device state cannot be
// installed: the tracker's class count does not match the target model,
// or the state fails structural validation. It maps to a 400 over HTTP
// — a migration payload the service must reject, not a server fault.
var ErrBadDeviceState = errors.New("core: bad device state")

// NewService builds a service. When cfg.DataDir is set, every model
// snapshot found there is restored into the registry before the service
// accepts requests (load-on-boot); a file that fails to decode aborts
// startup rather than silently serving a partial registry.
func NewService(cfg Config) (*Service, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Service{
		cfg:       cfg,
		models:    make(map[string]*ModelEntry),
		serving:   make(map[string]*sched.Live),
		trainData: make(map[string]*dataset.Set),
		devices:   make(map[string]*deviceState),
	}
	if cfg.DataDir != "" {
		if err := s.loadSnapshots(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// snapshotPath maps a model name to its snapshot file. Names are
// URL-escaped so any registry name (slashes included) stays a single
// file inside DataDir.
func (s *Service) snapshotPath(name string) string {
	return filepath.Join(s.cfg.DataDir, url.PathEscape(name)+".snap")
}

// loadSnapshots restores every *.snap bundle in DataDir.
func (s *Service) loadSnapshots() error {
	if err := os.MkdirAll(s.cfg.DataDir, 0o755); err != nil {
		return fmt.Errorf("core: creating data dir: %w", err)
	}
	entries, err := os.ReadDir(s.cfg.DataDir)
	if err != nil {
		return fmt.Errorf("core: reading data dir: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".snap") {
			continue
		}
		name, err := url.PathUnescape(strings.TrimSuffix(e.Name(), ".snap"))
		if err != nil || name == "" {
			return fmt.Errorf("core: snapshot file %q has no valid model name", e.Name())
		}
		snap, err := snapshot.LoadModel(filepath.Join(s.cfg.DataDir, e.Name()))
		if err != nil {
			return fmt.Errorf("core: restoring model %q: %w", name, err)
		}
		s.models[name] = &ModelEntry{
			Name:      name,
			Model:     snap.Model,
			Alpha:     snap.Alpha,
			Pred:      snap.Pred,
			StageAccs: snap.StageAccs,
		}
	}
	return nil
}

// persist snapshots the named model's current registry entry to
// DataDir; a no-op without a DataDir. The entry is re-read so the
// freshest published state wins. On error the in-memory registry keeps
// the (already published) new state — callers surface the error so the
// operator learns durability is broken, but serving continues.
func (s *Service) persist(name string) error {
	if s.cfg.DataDir == "" {
		return nil
	}
	entry, err := s.get(name)
	if err != nil {
		return err
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	snap := &snapshot.ModelSnapshot{
		Model:     entry.Model,
		Alpha:     entry.Alpha,
		StageAccs: entry.StageAccs,
		Pred:      entry.Pred,
	}
	if err := snapshot.SaveModel(s.snapshotPath(name), snap); err != nil {
		return fmt.Errorf("core: persisting %q: %w", name, err)
	}
	return nil
}

// TrainOptions bundles model and training hyperparameters for the
// training service (paper Section II-A).
type TrainOptions struct {
	Model staged.Config
	Train staged.TrainConfig
	Seed  int64
}

// DefaultTrainOptions sizes a three-stage network for the given input
// width and class count.
func DefaultTrainOptions(in, classes int) TrainOptions {
	return TrainOptions{
		Model: staged.DefaultConfig(in, classes),
		Train: staged.DefaultTrainConfig(),
		Seed:  1,
	}
}

// Train fits a staged model on the client-supplied data and registers it
// under name, replacing any previous model of that name. With a DataDir,
// the new model is also snapshotted; a persistence error is returned
// (durability was requested and is broken) but the model stays
// registered and serving in memory.
func (s *Service) Train(name string, train *dataset.Set, opts TrainOptions) (*ModelEntry, error) {
	if name == "" {
		return nil, fmt.Errorf("core: empty model name")
	}
	m, err := staged.New(rand.New(rand.NewSource(opts.Seed)), opts.Model)
	if err != nil {
		return nil, fmt.Errorf("core: building model %q: %w", name, err)
	}
	if err := checkSet(name, m, train); err != nil {
		return nil, err
	}
	if _, err := m.Train(opts.Train, train); err != nil {
		return nil, fmt.Errorf("core: training model %q: %w", name, err)
	}
	entry := &ModelEntry{Name: name, Model: m, StageAccs: m.EvalAllStages(train)}
	s.mu.Lock()
	stale := s.detachLocked(name)
	s.models[name] = entry
	// Retain the training set for later reduction requests (hot-class
	// subset models for device caching) that do not re-upload data.
	s.trainData[name] = train
	s.mu.Unlock()
	if stale != nil {
		stale.Stop()
	}
	if err := s.persist(name); err != nil {
		return nil, err
	}
	return entry, nil
}

// Register installs an externally trained model.
func (s *Service) Register(name string, m *staged.Model) (*ModelEntry, error) {
	if name == "" || m == nil {
		return nil, fmt.Errorf("core: bad registration (%q, %v)", name, m == nil)
	}
	entry := &ModelEntry{Name: name, Model: m}
	s.mu.Lock()
	stale := s.detachLocked(name)
	s.models[name] = entry
	s.mu.Unlock()
	if stale != nil {
		stale.Stop()
	}
	return entry, nil
}

// Calibrate runs the RTDeepIoT entropy calibration (paper Eq. 4) on the
// named model using held-out calibration data, then rebuilds the GP
// predictor if one existed. Serving is restarted lazily.
func (s *Service) Calibrate(name string, calibSet *dataset.Set, cfg calib.EntropyCalibConfig) (float64, error) {
	entry, err := s.get(name)
	if err != nil {
		return 0, err
	}
	if err := checkSet(name, entry.Model, calibSet); err != nil {
		return 0, err
	}
	// Work on a private clone: forward passes mutate layer scratch
	// buffers, and the published model may be serving concurrent
	// Calibrate/BuildPredictor calls.
	calibrated, alpha, err := calib.EntropyCalibrate(entry.Model.Clone(), calibSet, cfg)
	if err != nil {
		return 0, fmt.Errorf("core: calibrating %q: %w", name, err)
	}
	s.mu.Lock()
	if cur, ok := s.models[name]; !ok || cur.Model != entry.Model {
		// The model was retrained or replaced while calibration ran;
		// publishing the calibrated old model would clobber it.
		s.mu.Unlock()
		return 0, fmt.Errorf("core: model %q changed during calibration; retry", name)
	}
	// Copy-on-write: publish a fresh entry so readers holding the old
	// pointer keep a consistent (model, predictor) pair. Pred is
	// deliberately dropped — the confidences changed.
	s.models[name] = &ModelEntry{
		Name:      name,
		Model:     calibrated,
		Alpha:     alpha,
		StageAccs: entry.StageAccs,
	}
	stale := s.detachLocked(name)
	s.mu.Unlock()
	if stale != nil {
		stale.Stop()
	}
	if err := s.persist(name); err != nil {
		return 0, err
	}
	return alpha, nil
}

// BuildPredictor fits the GP confidence-curve predictor (paper Section
// III-B) from the model's confidence curves on the given data.
func (s *Service) BuildPredictor(name string, data *dataset.Set, cfg sched.GPPredictorConfig) error {
	entry, err := s.get(name)
	if err != nil {
		return err
	}
	if err := checkSet(name, entry.Model, data); err != nil {
		return err
	}
	// Clone for the same reason as Calibrate: keep forward-pass scratch
	// buffers off the shared registry model.
	curves, _ := entry.Model.Clone().ConfidenceCurves(data)
	pred, err := sched.NewGPPredictor(curves, cfg)
	if err != nil {
		return fmt.Errorf("core: fitting predictor for %q: %w", name, err)
	}
	s.mu.Lock()
	cur, ok := s.models[name]
	if !ok || cur.Model != entry.Model {
		// The model was retrained or recalibrated while the predictor
		// was fitting; installing it would pair a predictor with the
		// wrong confidence surface.
		s.mu.Unlock()
		return fmt.Errorf("core: model %q changed during predictor build; retry", name)
	}
	next := *cur
	next.Pred = pred
	s.models[name] = &next
	stale := s.detachLocked(name)
	s.mu.Unlock()
	if stale != nil {
		stale.Stop()
	}
	return s.persist(name)
}

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
	live, stages, err := s.liveFor(name)
	if err != nil {
		return sched.Response{}, err
	}
	resp, err := live.Submit(ctx, input, stages)
	if errors.Is(err, sched.ErrStopped) {
		if live, stages, err = s.liveFor(name); err != nil {
			return sched.Response{}, err
		}
		return live.Submit(ctx, input, stages)
	}
	return resp, err
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
	live, stages, err := s.liveFor(name)
	if err != nil {
		return nil, err
	}
	resps, err := live.SubmitBatch(ctx, inputs, stages)
	if errors.Is(err, sched.ErrStopped) {
		if live, stages, err = s.liveFor(name); err != nil {
			return nil, err
		}
		return live.SubmitBatch(ctx, inputs, stages)
	}
	return resps, err
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

// checkSet rejects a labelled set m cannot be fit on: rows of another
// width panic its forward pass, and a label outside its classes panics
// training's loss or, in calibration and the predictor's curves, scores
// every row as wrong and fits to nothing.
func checkSet(name string, m *staged.Model, set *dataset.Set) error {
	if set.X.Cols != m.In {
		return fmt.Errorf("core: model %q wants %w %d, got %d", name, ErrInputWidth, m.In, set.X.Cols)
	}
	if err := set.CheckLabels(m.Classes); err != nil {
		return fmt.Errorf("%w for model %q: %v", ErrLabelRange, name, err)
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

// DefaultSubsetHidden and DefaultSubsetEpochs size reduced hot-class
// models when a reduction request leaves them 0.
const (
	DefaultSubsetHidden = 24
	DefaultSubsetEpochs = 10
)

// Reduce trains a reduced hot-class model for caching on a device (paper
// Section II-B): it returns the subset model for download. train may be
// nil, in which case the data retained from the model's last Train call
// is used (models installed via Register/InstallSnapshot retain none).
// hidden and epochs default to DefaultSubsetHidden/DefaultSubsetEpochs
// when 0.
func (s *Service) Reduce(name string, train *dataset.Set, hot []int, hidden, epochs int) (*cache.SubsetModel, error) {
	if _, err := s.get(name); err != nil {
		return nil, err
	}
	if train == nil {
		s.mu.RLock()
		train = s.trainData[name]
		s.mu.RUnlock()
		if train == nil {
			return nil, fmt.Errorf("%w for %q; supply data with the reduction request", ErrNoTrainingData, name)
		}
	}
	if hidden == 0 {
		hidden = DefaultSubsetHidden
	}
	if epochs == 0 {
		epochs = DefaultSubsetEpochs
	}
	sub, err := cache.TrainSubset(train, hot, hidden, epochs, 1)
	if err != nil {
		return nil, fmt.Errorf("core: reducing %q: %w", name, err)
	}
	return sub, nil
}

// SnapshotBytes serializes the named model's full registry state (model,
// alpha, stage accuracies, predictor) in snapshot format — the payload
// of GET /v1/models/{name}/snapshot.
func (s *Service) SnapshotBytes(name string) ([]byte, error) {
	return s.SnapshotBytesPrecision(name, "")
}

// SnapshotBytesPrecision is SnapshotBytes with a selectable weight
// payload: PrecisionF32 emits the half-size float32 artifact kind (the
// wire form for f32 serving tiers and edge downloads); empty or
// PrecisionF64 emits the lossless float64 bundle.
func (s *Service) SnapshotBytesPrecision(name, precision string) ([]byte, error) {
	entry, err := s.get(name)
	if err != nil {
		return nil, err
	}
	snap := &snapshot.ModelSnapshot{
		Model:     entry.Model,
		Alpha:     entry.Alpha,
		StageAccs: entry.StageAccs,
		Pred:      entry.Pred,
	}
	if precision != "" && precision != PrecisionF64 && precision != PrecisionF32 {
		return nil, fmt.Errorf("core: snapshot precision %q must be %q or %q", precision, PrecisionF64, PrecisionF32)
	}
	raw, err := snapshot.MarshalModel(snap, precision == PrecisionF32)
	if err != nil {
		return nil, fmt.Errorf("core: encoding snapshot of %q: %w", name, err)
	}
	return raw, nil
}

// InstallSnapshotBytes decodes a snapshot and installs it under name,
// replacing any existing model of that name and persisting it when a
// DataDir is configured — the payload of PUT /v1/models/{name}/snapshot.
func (s *Service) InstallSnapshotBytes(name string, data []byte) error {
	if name == "" {
		return fmt.Errorf("core: empty model name")
	}
	snap, err := snapshot.UnmarshalModel(data)
	if err != nil {
		return fmt.Errorf("%w %q: %w", ErrInstall, name, err)
	}
	entry := &ModelEntry{
		Name:      name,
		Model:     snap.Model,
		Alpha:     snap.Alpha,
		Pred:      snap.Pred,
		StageAccs: snap.StageAccs,
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	stale := s.detachLocked(name)
	s.models[name] = entry
	// Any retained training data described the replaced model.
	delete(s.trainData, name)
	s.mu.Unlock()
	if stale != nil {
		stale.Stop()
	}
	return s.persist(name)
}

// deviceState is the server-side record of one device's request stream
// (paper Section II-B): the frequency tracker fed by live inference
// traffic, the caching policy, and the most recently built subset model.
type deviceState struct {
	model   string
	tracker *cache.FreqTracker
	policy  cache.Policy

	mu     sync.Mutex
	sub    *cache.SubsetModel
	subHot []int
}

// CacheDecision reports whether (and with which hot classes) a device
// should cache a reduced model.
type CacheDecision struct {
	Model        string
	Cache        bool
	Hot          []int
	Share        float64
	Observations float64
}

// deviceFor returns (creating if needed) the device's tracker state.
// A device follows one model; observing it against a different model
// resets the stream.
func (s *Service) deviceFor(device, model string) (*deviceState, error) {
	if device == "" {
		return nil, ErrEmptyDevice
	}
	entry, err := s.get(model)
	if err != nil {
		return nil, err
	}
	s.devMu.Lock()
	defer s.devMu.Unlock()
	if st, ok := s.devices[device]; ok && st.model == model {
		return st, nil
	}
	tracker, err := cache.NewFreqTracker(entry.Model.Classes, 0.999)
	if err != nil {
		return nil, err
	}
	st := &deviceState{model: model, tracker: tracker, policy: cache.DefaultPolicy()}
	s.devices[device] = st
	return st, nil
}

// Observe feeds count requests for class on the named device into its
// frequency tracker — the signal behind cache decisions. Inference
// handlers call it with each answered prediction when the client tags
// its requests with a device id.
func (s *Service) Observe(device, model string, class, count int) error {
	st, err := s.deviceFor(device, model)
	if err != nil {
		return err
	}
	if count < 1 {
		count = 1
	}
	if class < 0 || class >= st.tracker.Classes() {
		return fmt.Errorf("core: class %d %w %q's %d classes", class, ErrClassRange, model, st.tracker.Classes())
	}
	st.tracker.ObserveN(class, count)
	return nil
}

// CacheDecision evaluates the caching policy for a device: whether the
// observed traffic justifies a reduced hot-class model, and over which
// classes.
func (s *Service) CacheDecision(device string) (CacheDecision, error) {
	s.devMu.Lock()
	st, ok := s.devices[device]
	s.devMu.Unlock()
	if !ok {
		return CacheDecision{}, fmt.Errorf("%w %q (no observations yet)", ErrUnknownDevice, device)
	}
	hot, share := st.policy.DecideShare(st.tracker)
	return CacheDecision{
		Model:        st.model,
		Cache:        hot != nil,
		Hot:          hot,
		Share:        share,
		Observations: st.tracker.Observations(),
	}, nil
}

// ExportDeviceState returns the device's model name and a copy of its
// frequency-tracker state, the payload of a device-state handoff: a
// tracker restored from it (ImportDeviceState on another node) answers
// every cache decision bitwise identically. The device keeps serving
// here — export does not detach anything, so a failed migration leaves
// the source state intact.
func (s *Service) ExportDeviceState(device string) (string, cache.TrackerState, error) {
	s.devMu.Lock()
	st, ok := s.devices[device]
	s.devMu.Unlock()
	if !ok {
		return "", cache.TrackerState{}, fmt.Errorf("%w %q (no observations yet)", ErrUnknownDevice, device)
	}
	return st.model, st.tracker.Export(), nil
}

// ImportDeviceState installs a migrated frequency tracker for device,
// replacing any existing state (a re-delivered migration must converge
// on the migrated state, not double-count it). The model must be
// registered here and its class count must match the tracker's —
// otherwise ErrBadDeviceState, and nothing is installed.
func (s *Service) ImportDeviceState(device, model string, ts cache.TrackerState) error {
	if device == "" {
		return ErrEmptyDevice
	}
	entry, err := s.get(model)
	if err != nil {
		return err
	}
	tracker, err := cache.ImportTracker(ts)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadDeviceState, err)
	}
	if tracker.Classes() != entry.Model.Classes {
		return fmt.Errorf("%w: tracker covers %d classes, model %q has %d",
			ErrBadDeviceState, tracker.Classes(), model, entry.Model.Classes)
	}
	st := &deviceState{model: model, tracker: tracker, policy: cache.DefaultPolicy()}
	s.devMu.Lock()
	s.devices[device] = st
	s.devMu.Unlock()
	return nil
}

// DeviceSubset returns the reduced model a device should cache: it
// evaluates the policy, trains a subset model over the hot classes
// (reusing the previous one while the hot set is unchanged), and returns
// it with the decision. Training data comes from the model's retained
// train set.
func (s *Service) DeviceSubset(device string, hidden, epochs int) (*cache.SubsetModel, CacheDecision, error) {
	d, err := s.CacheDecision(device)
	if err != nil {
		return nil, CacheDecision{}, err
	}
	if !d.Cache {
		return nil, d, fmt.Errorf("%w for device %q yet (%.0f observations)", ErrCachingNotJustified, device, d.Observations)
	}
	s.devMu.Lock()
	st, ok := s.devices[device]
	s.devMu.Unlock()
	if !ok || st.model != d.Model {
		// A concurrent Observe against a different model replaced the
		// device's state between the decision and here; pairing the old
		// decision's hot classes with the new model would train a
		// subset over the wrong label space.
		return nil, CacheDecision{}, fmt.Errorf("core: device %q switched models; retry", device)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.sub != nil && equalInts(st.subHot, d.Hot) {
		return st.sub, d, nil
	}
	sub, err := s.Reduce(st.model, nil, d.Hot, hidden, epochs)
	if err != nil {
		return nil, d, err
	}
	st.sub, st.subHot = sub, append([]int(nil), d.Hot...)
	return sub, d, nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Models lists registered model names.
func (s *Service) Models() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.models))
	for n := range s.models {
		names = append(names, n)
	}
	return names
}

// Entry returns a snapshot of the registry entry for a model. The
// struct fields and the StageAccs slice are the caller's to mutate; the
// Model and Pred pointers still reference the published (immutable)
// objects and must be treated as read-only.
func (s *Service) Entry(name string) (*ModelEntry, error) {
	entry, err := s.get(name)
	if err != nil {
		return nil, err
	}
	cp := *entry
	cp.StageAccs = append([]float64(nil), entry.StageAccs...)
	return &cp, nil
}

// Stats returns per-model serving counters for every model with an
// active pool (models never inferred against report no stats).
func (s *Service) Stats() map[string]sched.LiveStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]sched.LiveStats, len(s.serving))
	for n, live := range s.serving {
		out[n] = live.Stats()
	}
	return out
}

// Close stops all serving pools; subsequent inferences fail with
// ErrClosed rather than restarting pools.
func (s *Service) Close() {
	s.mu.Lock()
	s.closed = true
	stopping := make([]*sched.Live, 0, len(s.serving))
	for n, live := range s.serving {
		stopping = append(stopping, live)
		delete(s.serving, n)
	}
	s.mu.Unlock()
	for _, live := range stopping {
		live.Stop()
	}
}

// detachLocked removes name's serving pool from the registry and hands
// it back for the caller to Stop *after* releasing s.mu. Stop joins the
// pool's worker goroutines, so calling it under the registry lock would
// stall every Infer/Stats reader behind a slow in-flight request — the
// shape the locks analyzer rejects. Each pool is detached exactly
// once, so the caller's Stop never races another stopper; submitters
// still holding the old pointer get sched.ErrStopped and retry through
// liveFor, which re-reads the current model under the lock.
func (s *Service) detachLocked(name string) *sched.Live {
	live, ok := s.serving[name]
	if !ok {
		return nil
	}
	delete(s.serving, name)
	return live
}

func (s *Service) get(name string) (*ModelEntry, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	entry, ok := s.models[name]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownModel, name)
	}
	return entry, nil
}
