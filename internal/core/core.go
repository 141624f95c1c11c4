// Package core is Eugene's service orchestration layer: a model registry
// that owns trained staged networks together with their calibration
// state and GP confidence predictors, and a serving engine that schedules
// inference requests over a worker pool under the RTDeepIoT policy
// (paper Sections II and III). The HTTP layer (internal/service) and the
// public API (package eugene) are thin wrappers over this package.
package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"eugene/internal/dataset"
	"eugene/internal/sched"
)

// Config controls the serving engine.
type Config struct {
	// Workers is the inference pool size.
	Workers int
	// Deadline is the per-request latency constraint.
	Deadline time.Duration
	// QueueDepth is the most rows one inference call may submit; a
	// larger InferBatch is refused (sched.ErrBatchTooLarge).
	QueueDepth int
	// Lookahead is the RTDeepIoT k parameter.
	Lookahead int
	// MaxBatch caps how many same-stage tasks the scheduler coalesces
	// into one batched forward pass (0 = sched.DefaultMaxBatch, 1
	// disables batching). Larger batches raise throughput under load at
	// the cost of coarser per-dispatch deadline granularity.
	MaxBatch int
	// DataDir enables snapshot persistence: every publish (Train,
	// Register, Calibrate, BuildPredictor, snapshot install) atomically
	// writes the model's bundle to <DataDir>/<name>.snap, and NewService
	// restores every bundle found there, so a restarted server answers
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

// CheckPrecision rejects a precision other than PrecisionF64,
// PrecisionF32 or empty (the float64 default): the one set a serving
// pool, a snapshot download and a subset download choose from.
func CheckPrecision(p string) error {
	if p != "" && p != PrecisionF64 && p != PrecisionF32 {
		return fmt.Errorf("precision %q must be %q or %q", p, PrecisionF64, PrecisionF32)
	}
	return nil
}

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
	if err := CheckPrecision(c.Precision); err != nil {
		return fmt.Errorf("core: %w", err)
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
	// writer: persistence events are rare — one per publish — so
	// cross-model write contention is irrelevant, and the registry lock
	// is never held across disk I/O). persist reads the entry it writes
	// under snapMu, so the last write is of the last entry published.
	//
	//eugene:lockorder Service.snapMu before Service.mu
	snapMu sync.Mutex

	devMu   sync.Mutex
	devices map[string]*deviceState
}

// ErrClosed is returned for operations on a closed service.
var ErrClosed = errors.New("core: service closed")

// errChanged is publish's refusal when the model a publisher derived its
// entry from is no longer registered; its callers name the operation
// around it ("model %q changed during calibration; retry").
var errChanged = errors.New("changed")

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

// Close stops all serving pools; subsequent inferences and publishes
// fail with ErrClosed rather than restarting pools or writing snapshots.
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

func (s *Service) get(name string) (*ModelEntry, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	entry, ok := s.models[name]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownModel, name)
	}
	return entry, nil
}
