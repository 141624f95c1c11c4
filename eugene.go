// Package eugene is the public API of the Eugene deep-intelligence-as-a-
// service platform, a from-scratch Go reproduction of "Eugene: Towards
// Deep Intelligence as a Service" (Yao et al., ICDCS 2019).
//
// Eugene serves machine-intelligence tasks for resource-constrained IoT
// clients: it trains multi-exit ("staged") neural networks from
// client-supplied data, calibrates their confidence estimates with the
// paper's entropy-regularized fine-tuning (Eq. 4), predicts
// future-stage confidence with Gaussian-process regression, and
// schedules inference stage-by-stage under per-request latency
// constraints with the utility-maximizing RTDeepIoT scheduler (paper
// Section III). It also provides the surrounding service suite: model
// reduction and device caching (Section II-B), execution profiling
// (II-C), semi-supervised labeling (II-A), and collaborative
// multi-camera inferencing (Section IV).
//
// # Quick start
//
//	svc, err := eugene.NewService(eugene.DefaultConfig())
//	...
//	data, err := eugene.NewSet(features, labels, dim)
//	entry, err := svc.Train("my-model", data, eugene.DefaultTrainOptions(dim, classes))
//	alpha, err := svc.Calibrate("my-model", calibData)
//	err = svc.BuildPredictor("my-model", data)
//	resp, err := svc.Infer(ctx, "my-model", sample)
//	resps, err := svc.InferBatch(ctx, "my-model", samples)
//
// See examples/ for complete programs and README.md for the build,
// quickstart, and HTTP API reference.
package eugene

import (
	"context"
	"fmt"
	"net/http"

	"eugene/internal/cache"
	"eugene/internal/calib"
	"eugene/internal/core"
	"eugene/internal/dataset"
	"eugene/internal/sched"
	"eugene/internal/service"
	"eugene/internal/staged"
	"eugene/internal/tensor"
)

// Config controls a Service: the worker-pool size (the paper's process
// pool), the per-request latency constraint, which the scheduler
// enforces at every pick and stage end, and the RTDeepIoT lookahead k.
type Config = core.Config

// TrainOptions bundles model and training hyperparameters.
type TrainOptions = core.TrainOptions

// ModelEntry describes a registered model.
type ModelEntry = core.ModelEntry

// Response is the scheduler's answer to one inference request: the
// classification, its calibrated confidence, how many stages actually
// ran, and whether the deadline cut execution short.
type Response = sched.Response

// LiveStats is a snapshot of one model's serving counters.
type LiveStats = sched.LiveStats

// Set is a labeled dataset (one sample per row).
type Set = dataset.Set

// SubsetModel is a reduced hot-class model for device caching.
type SubsetModel = cache.SubsetModel

// StagedConfig configures the multi-exit network architecture.
type StagedConfig = staged.Config

// CalibConfig controls entropy calibration (paper Eq. 4).
type CalibConfig = calib.EntropyCalibConfig

// PredictorConfig controls GP confidence-curve fitting.
type PredictorConfig = sched.GPPredictorConfig

// DefaultMaxBatch is the stage-batch cap used when Config.MaxBatch is 0:
// the most same-stage tasks the scheduler coalesces into one batched
// forward pass, 64. A worker takes that many only while its peers are
// busy; with workers idle it takes an even share, but not under half.
const DefaultMaxBatch = sched.DefaultMaxBatch

// DefaultConfig returns serving defaults: 4 workers, 200 ms deadline,
// lookahead 1.
func DefaultConfig() Config { return core.DefaultConfig() }

// DefaultTrainOptions sizes a three-stage residual network for the given
// input width and class count.
func DefaultTrainOptions(in, classes int) TrainOptions {
	return core.DefaultTrainOptions(in, classes)
}

// DefaultCalibConfig returns the Eq. 4 grid-search defaults.
func DefaultCalibConfig() CalibConfig { return calib.DefaultEntropyCalibConfig() }

// DefaultPredictorConfig returns the GP fitting defaults.
func DefaultPredictorConfig() PredictorConfig { return sched.DefaultGPPredictorConfig() }

// NewSet builds a dataset from a flattened row-major feature slice
// (len(features) must equal dim × len(labels)).
func NewSet(features []float64, labels []int, dim int) (*Set, error) {
	if dim < 1 {
		return nil, fmt.Errorf("eugene: dim %d must be positive", dim)
	}
	if len(features) != dim*len(labels) {
		return nil, fmt.Errorf("eugene: %d features for %d samples of dim %d", len(features), len(labels), dim)
	}
	return &dataset.Set{
		X:      tensor.FromSlice(len(labels), dim, features),
		Labels: labels,
	}, nil
}

// Service is the Eugene backend: model registry, training, calibration,
// predictor fitting, reduction, and scheduled inference. Safe for
// concurrent use.
type Service struct {
	inner *core.Service
}

// NewService builds a service.
func NewService(cfg Config) (*Service, error) {
	inner, err := core.NewService(cfg)
	if err != nil {
		return nil, err
	}
	return &Service{inner: inner}, nil
}

// Train fits a staged model on client data and registers it under name.
func (s *Service) Train(name string, data *Set, opts TrainOptions) (*ModelEntry, error) {
	return s.inner.Train(name, data, opts)
}

// Calibrate runs RTDeepIoT entropy calibration on held-out data and
// returns the chosen α. It drops the model's GP predictor, whose
// confidences changed: the model serves FIFO until BuildPredictor runs
// again.
func (s *Service) Calibrate(name string, data *Set) (float64, error) {
	return s.inner.Calibrate(name, data, calib.DefaultEntropyCalibConfig())
}

// CalibrateWith is Calibrate with explicit settings.
func (s *Service) CalibrateWith(name string, data *Set, cfg CalibConfig) (float64, error) {
	return s.inner.Calibrate(name, data, cfg)
}

// BuildPredictor fits the GP confidence predictor the scheduler uses.
func (s *Service) BuildPredictor(name string, data *Set) error {
	return s.inner.BuildPredictor(name, data, sched.DefaultGPPredictorConfig())
}

// Infer schedules one inference request and blocks until it is answered
// or expires. Infer takes ownership of input without copying: the caller
// must not mutate the slice after the call starts, even after an early
// return (context cancellation, ErrUnanswered) — a stage may still be
// reading it on a worker. The service itself only ever reads it.
func (s *Service) Infer(ctx context.Context, name string, input []float64) (Response, error) {
	return s.inner.Infer(ctx, name, input)
}

// InferBatch schedules len(inputs) requests in one scheduler interaction
// and blocks until all are answered or expired. Responses are in input
// order; per-task expiry is reported via Response.Expired rather than an
// error, so one late task does not hide the other answers. Like Infer,
// it takes ownership of the input slices without copying; do not mutate
// them after the call starts.
func (s *Service) InferBatch(ctx context.Context, name string, inputs [][]float64) ([]Response, error) {
	return s.inner.InferBatch(ctx, name, inputs)
}

// Stats returns per-model serving counters (submitted/answered/expired,
// queue depth, p50/p99 latency) for every model with an active pool.
func (s *Service) Stats() map[string]LiveStats { return s.inner.Stats() }

// Reduce trains a reduced hot-class model for caching on a device. data
// may be nil to reuse the training set retained from the model's last
// Train call; hidden/epochs of 0 take defaults.
func (s *Service) Reduce(name string, data *Set, hotClasses []int, hidden, epochs int) (*SubsetModel, error) {
	return s.inner.Reduce(name, data, hotClasses, hidden, epochs)
}

// SnapshotBytes serializes a model's full registry state (weights,
// calibration alpha, GP predictor profiles) in Eugene's versioned
// binary snapshot format. A snapshot restored anywhere — same process,
// another server, after a restart — answers bitwise-identically.
func (s *Service) SnapshotBytes(name string) ([]byte, error) {
	return s.inner.SnapshotBytes(name)
}

// InstallSnapshotBytes decodes a snapshot and registers it under name,
// persisting it when the service has a DataDir.
func (s *Service) InstallSnapshotBytes(name string, data []byte) error {
	return s.inner.InstallSnapshotBytes(name, data)
}

// CacheDecision is the caching policy's verdict for one device.
type CacheDecision = core.CacheDecision

// Observe feeds count observed requests of class into a device's
// frequency tracker (the edge-caching signal of paper Section II-B).
func (s *Service) Observe(device, model string, class, count int) error {
	return s.inner.Observe(device, model, class, count)
}

// DeviceCacheDecision evaluates the caching policy for a device.
func (s *Service) DeviceCacheDecision(device string) (CacheDecision, error) {
	return s.inner.CacheDecision(device)
}

// DeviceSubset returns the reduced model a device should cache, training
// it (or reusing the cached one) over the decided hot classes.
func (s *Service) DeviceSubset(device string, hidden, epochs int) (*SubsetModel, CacheDecision, error) {
	return s.inner.DeviceSubset(device, hidden, epochs)
}

// Models lists registered model names.
func (s *Service) Models() []string { return s.inner.Models() }

// Entry returns a model's registry entry.
func (s *Service) Entry(name string) (*ModelEntry, error) { return s.inner.Entry(name) }

// Close stops all worker pools.
func (s *Service) Close() { s.inner.Close() }

// Handler returns an http.Handler exposing the service's JSON API
// (GET /v1/models, POST /v1/models/{name}/train|calibrate|predictor|infer).
func (s *Service) Handler() http.Handler { return service.NewServer(s.inner) }

// Client is the Go client for a remote Eugene server.
type Client = service.Client

// RetryPolicy controls a client's bounded-retry behavior for idempotent
// operations (inference and GETs): capped exponential backoff with full
// jitter, honoring the server's Retry-After hint, under a per-client
// retry token budget.
type RetryPolicy = service.RetryPolicy

// ErrOverloaded is the typed rejection from SLO admission control
// (Config.Admission): the scheduler predicted the request would miss
// its deadline and refused it immediately. Over HTTP it surfaces as a
// 429 with a Retry-After header.
type ErrOverloaded = sched.ErrOverloaded

// InferResponse is the wire form of one scheduled inference answer.
type InferResponse = service.InferResponse

// ReduceRequest asks a server for a reduced hot-class model.
type ReduceRequest = service.ReduceRequest

// SubsetModelResponse carries a reduced device model over the wire
// (decode with Client.DecodeSubset).
type SubsetModelResponse = service.SubsetModelResponse

// CacheDecisionResponse is the wire form of a device cache decision.
type CacheDecisionResponse = service.CacheDecisionResponse

// ClusterStatusResponse is a cluster router's membership, health,
// replication, and traffic report (GET /v1/cluster).
type ClusterStatusResponse = service.ClusterStatusResponse

// MembershipResponse reports a cluster membership change (node added
// or removed).
type MembershipResponse = service.MembershipResponse

// DrainResponse reports a completed planned drain: devices owned and
// trackers handed off.
type DrainResponse = service.DrainResponse

// NewClient builds a client for the given base URL.
func NewClient(base string) *Client { return service.NewClient(base) }

// NewResilientClient builds a client that retries idempotent operations
// under service.DefaultRetryPolicy.
func NewResilientClient(base string) *Client { return service.NewResilientClient(base) }

// NewFailoverClient builds a client that spreads idempotent requests
// across several equivalent endpoints (redundant cluster routers),
// failing over to the next when the current one dies. Non-idempotent
// requests stick to the current endpoint and are never replayed.
func NewFailoverClient(bases ...string) *Client { return service.NewFailoverClient(bases...) }

// ListenAndServe starts an HTTP server for the service on addr and
// blocks, with the timeouts of service.NewHTTPServer. For different
// limits or graceful shutdown, build your own http.Server around
// Handler.
func (s *Service) ListenAndServe(addr string) error {
	return service.NewHTTPServer(addr, s.Handler()).ListenAndServe()
}
