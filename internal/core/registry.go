package core

import (
	"errors"
	"fmt"
	"math/rand"
	"net/url"
	"os"
	"path/filepath"
	"strings"

	"eugene/internal/calib"
	"eugene/internal/dataset"
	"eugene/internal/sched"
	"eugene/internal/snapshot"
	"eugene/internal/staged"
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

// entryOf is the registry entry a snapshot bundle restores.
func entryOf(name string, snap *snapshot.ModelSnapshot) *ModelEntry {
	return &ModelEntry{Name: name, Model: snap.Model, Alpha: snap.Alpha, Pred: snap.Pred, StageAccs: snap.StageAccs}
}

// snapshot is the bundle that restores e.
func (e *ModelEntry) snapshot() *snapshot.ModelSnapshot {
	return &snapshot.ModelSnapshot{Model: e.Model, Alpha: e.Alpha, StageAccs: e.StageAccs, Pred: e.Pred}
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
		s.models[name] = entryOf(name, snap)
	}
	return nil
}

// persist snapshots the named model's current registry entry to
// DataDir; a no-op without a DataDir. The entry is read under snapMu, so
// of two racing publishes the write that lands last is of the later
// entry. On error the in-memory registry keeps the (already published)
// new state — callers surface the error so the operator learns
// durability is broken, but serving continues.
func (s *Service) persist(name string) error {
	if s.cfg.DataDir == "" {
		return nil
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	entry, err := s.get(name)
	if err != nil {
		return err
	}
	if err := snapshot.SaveModel(s.snapshotPath(name), entry.snapshot()); err != nil {
		return fmt.Errorf("core: persisting %q: %w", name, err)
	}
	return nil
}

// publish makes next the registry entry for name; every registry write
// (Train, Register, Calibrate, BuildPredictor, InstallSnapshotBytes)
// goes through it. Under s.mu it refuses with ErrClosed after Close and,
// when from is non-nil, with errChanged unless from is still the
// registered model (a retrain or swap raced the publisher's work). It
// keeps the retained training data when from is set (the model's
// lineage is unchanged), replaces it with train when that is non-nil,
// and drops it otherwise, since it described the replaced model.
//
// The old pool is detached under the lock and stopped after release:
// Stop joins the pool's worker goroutines, so calling it under s.mu
// would stall every Infer/Stats reader behind a slow in-flight request
// — the shape the locks analyzer rejects. Each pool is detached exactly
// once, so this Stop never races another stopper; submitters still
// holding the old pointer get sched.ErrStopped and retry through
// liveFor, which starts a pool for the new entry. Last, the entry is
// persisted.
func (s *Service) publish(name string, next *ModelEntry, from *staged.Model, train *dataset.Set) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if cur, ok := s.models[name]; from != nil && (!ok || cur.Model != from) {
		s.mu.Unlock()
		return errChanged
	}
	s.models[name] = next
	stale := s.serving[name]
	delete(s.serving, name)
	switch {
	case train != nil:
		s.trainData[name] = train
	case from == nil:
		delete(s.trainData, name)
	}
	s.mu.Unlock()
	if stale != nil {
		stale.Stop()
	}
	return s.persist(name)
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
// under name, replacing any previous model of that name, and retains
// the data for later reduction requests (hot-class subset models for
// device caching) that do not re-upload it. With a DataDir, the new
// model is also snapshotted; a persistence error is returned
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
	if err := s.publish(name, entry, nil, train); err != nil {
		return nil, err
	}
	return entry, nil
}

// Register installs an externally trained model, replacing any model of
// that name (and the training data retained for it), and persists it
// like every other publish.
func (s *Service) Register(name string, m *staged.Model) (*ModelEntry, error) {
	if name == "" || m == nil {
		return nil, fmt.Errorf("core: bad registration (%q, %v)", name, m == nil)
	}
	entry := &ModelEntry{Name: name, Model: m}
	if err := s.publish(name, entry, nil, nil); err != nil {
		return nil, err
	}
	return entry, nil
}

// Calibrate runs the RTDeepIoT entropy calibration (paper Eq. 4) on the
// named model using held-out calibration data and publishes the
// calibrated model. The GP predictor is dropped, since the confidences
// it was fitted to changed: the model serves FIFO until BuildPredictor
// runs again. Serving is restarted lazily.
func (s *Service) Calibrate(name string, calibSet *dataset.Set, cfg calib.EntropyCalibConfig) (float64, error) {
	entry, err := s.get(name)
	if err != nil {
		return 0, err
	}
	if err := checkSet(name, entry.Model, calibSet); err != nil {
		return 0, err
	}
	// EntropyCalibrate only clones the published model, which may be
	// serving concurrent Calibrate/BuildPredictor calls; its forward
	// passes write the clone's layer scratch.
	calibrated, alpha, err := calib.EntropyCalibrate(entry.Model, calibSet, cfg)
	if err != nil {
		return 0, fmt.Errorf("core: calibrating %q: %w", name, err)
	}
	// Copy-on-write: publish a fresh entry so readers holding the old
	// pointer keep a consistent (model, predictor) pair. If the model was
	// retrained or replaced while calibration ran, publishing the
	// calibrated old model would clobber it.
	next := &ModelEntry{Name: name, Model: calibrated, Alpha: alpha, StageAccs: entry.StageAccs}
	if err := s.publish(name, next, entry.Model, nil); errors.Is(err, errChanged) {
		return 0, fmt.Errorf("core: model %q %w during calibration; retry", name, err)
	} else if err != nil {
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
	// Forward passes write layer scratch: run them on a clone, off the
	// shared registry model, as EntropyCalibrate does.
	curves, _ := entry.Model.Clone().ConfidenceCurves(data)
	pred, err := sched.NewGPPredictor(curves, cfg)
	if err != nil {
		return fmt.Errorf("core: fitting predictor for %q: %w", name, err)
	}
	// If the model was retrained or recalibrated while the predictor was
	// fitting, installing it would pair a predictor with the wrong
	// confidence surface.
	next := *entry
	next.Pred = pred
	err = s.publish(name, &next, entry.Model, nil)
	if errors.Is(err, errChanged) {
		return fmt.Errorf("core: model %q %w during predictor build; retry", name, err)
	}
	return err
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
	if err := CheckPrecision(precision); err != nil {
		return nil, fmt.Errorf("core: snapshot %w", err)
	}
	raw, err := snapshot.MarshalModel(entry.snapshot(), precision == PrecisionF32)
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
	return s.publish(name, entryOf(name, snap), nil, nil)
}
