// Package service exposes the Eugene core over HTTP/JSON — the network
// face of "deep intelligence as a service" (paper Section II): clients
// upload labeled data for training, request calibration and predictor
// builds, and submit inference tasks that the RTDeepIoT scheduler
// executes under a latency constraint. A matching Go client lives in
// client.go.
//
// The API is JSON. The two requests that carry rows are read by the
// codec in wire.go, in either of two media types: InferRequest and
// InferBatchRequest as JSON, by a single-pass decoder held to exactly
// encoding/json's grammar by differential tests (FuzzInferBody,
// FuzzPeekDevice), or FrameType, the binary frame the Go client sends
// and a replica answers in kind (FuzzRowsFrame, FuzzAnswersFrame).
// Every other request and response, errors included, goes through
// encoding/json.
// The HTTP helpers here (WriteJSON, WriteError, ReadBody, the Max*Body
// caps, BodyBuf) are the one set the replica and the cluster router
// both use.
package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"eugene/internal/cache"
	"eugene/internal/calib"
	"eugene/internal/core"
	"eugene/internal/dataset"
	"eugene/internal/failpoint"
	"eugene/internal/sched"
	"eugene/internal/snapshot"
	"eugene/internal/tensor"
)

// DataPayload is the wire form of a labeled dataset: one flattened
// row-major feature matrix plus labels ("data pools" in the paper's
// service-model discussion).
type DataPayload struct {
	Dim    int       `json:"dim"`
	X      []float64 `json:"x"`
	Labels []int     `json:"labels"`
}

// ToSet validates and converts the payload. The shape is checked by
// division, not by multiplying Dim by the sample count: that product
// overflows for a large enough Dim and would let a short X through.
// Labels must be non-negative; their upper bound is the model's class
// count, which the payload does not carry.
func (p *DataPayload) ToSet() (*dataset.Set, error) {
	if p.Dim < 1 {
		return nil, fmt.Errorf("service: dim %d must be positive", p.Dim)
	}
	if len(p.X)%p.Dim != 0 || len(p.X)/p.Dim != len(p.Labels) {
		return nil, fmt.Errorf("service: %d values for %d samples of dim %d", len(p.X), len(p.Labels), p.Dim)
	}
	if len(p.Labels) == 0 {
		return nil, errors.New("service: empty dataset")
	}
	for i, y := range p.Labels {
		if y < 0 {
			return nil, fmt.Errorf("service: sample %d has negative label %d", i, y)
		}
	}
	return &dataset.Set{
		X:      tensor.FromSlice(len(p.Labels), p.Dim, p.X),
		Labels: p.Labels,
	}, nil
}

// FromSet converts a dataset to its wire form.
func FromSet(s *dataset.Set) DataPayload {
	return DataPayload{Dim: s.X.Cols, X: s.X.Data, Labels: s.Labels}
}

// TrainRequest asks the service to train a model.
type TrainRequest struct {
	Data    DataPayload `json:"data"`
	Classes int         `json:"classes"`
	// Hidden, Stages, Blocks optionally override the default model
	// shape (0 = default).
	Hidden int   `json:"hidden,omitempty"`
	Stages int   `json:"stages,omitempty"`
	Blocks int   `json:"blocks,omitempty"`
	Epochs int   `json:"epochs,omitempty"`
	Seed   int64 `json:"seed,omitempty"`
}

// options validates the request and returns the set and options to
// train on: a request it accepts has every label in [0, Classes), and a
// negative size is refused rather than read as the default.
func (r *TrainRequest) options() (*dataset.Set, core.TrainOptions, error) {
	set, err := r.Data.ToSet()
	if err != nil {
		return nil, core.TrainOptions{}, err
	}
	if r.Classes < 2 {
		return nil, core.TrainOptions{}, fmt.Errorf("classes %d must be ≥2", r.Classes)
	}
	if err := set.CheckLabels(r.Classes); err != nil {
		return nil, core.TrainOptions{}, err
	}
	if r.Hidden < 0 || r.Stages < 0 || r.Blocks < 0 || r.Epochs < 0 {
		return nil, core.TrainOptions{}, fmt.Errorf("hidden %d, stages %d, blocks %d, epochs %d: none may be negative (0 is the default)",
			r.Hidden, r.Stages, r.Blocks, r.Epochs)
	}
	opts := core.DefaultTrainOptions(set.X.Cols, r.Classes)
	if r.Hidden > 0 {
		opts.Model.Hidden = r.Hidden
	}
	if r.Stages > 0 {
		opts.Model.StageCount = r.Stages
	}
	if r.Blocks > 0 {
		opts.Model.BlocksPerStage = r.Blocks
	}
	if r.Epochs > 0 {
		opts.Train.Epochs = r.Epochs
	}
	if r.Seed != 0 {
		opts.Seed = r.Seed
	}
	return set, opts, nil
}

// TrainResponse reports training results.
type TrainResponse struct {
	Name      string    `json:"name"`
	StageAccs []float64 `json:"stage_accs"`
}

// InferRequest submits one sample for scheduled inference. Device
// optionally names the requesting device: answered predictions then
// feed the device's class-frequency tracker, the signal behind
// edge-cache decisions (paper Section II-B).
type InferRequest struct {
	Input  []float64 `json:"input"`
	Device string    `json:"device,omitempty"`
}

// InferResponse is the scheduler's answer.
type InferResponse struct {
	Pred      int     `json:"pred"`
	Conf      float64 `json:"conf"`
	Stages    int     `json:"stages"`
	Expired   bool    `json:"expired"`
	LatencyMS float64 `json:"latency_ms"`
}

// InferBatchRequest submits several samples in one scheduler
// interaction. Device works as in InferRequest, covering every input.
type InferBatchRequest struct {
	Inputs [][]float64 `json:"inputs"`
	Device string      `json:"device,omitempty"`
}

// ReduceRequest asks for a reduced hot-class model (paper Section
// II-B). Data may be omitted to reuse the training set retained from
// the model's last train call; Hidden and Epochs of 0 take server
// defaults. Precision "f32" returns the model in the half-size float32
// snapshot form (edge downloads); empty or "f64" keeps float64.
type ReduceRequest struct {
	Data      *DataPayload `json:"data,omitempty"`
	Hot       []int        `json:"hot"`
	Hidden    int          `json:"hidden,omitempty"`
	Epochs    int          `json:"epochs,omitempty"`
	Precision string       `json:"precision,omitempty"`
}

// SubsetModelResponse carries a reduced device model: the hot classes
// in model output order, the parameter count (device-footprint proxy),
// and the model itself in snapshot format (base64 in JSON), decodable
// with Client.DecodeSubset.
type SubsetModelResponse struct {
	Hot      []int  `json:"hot"`
	Params   int    `json:"params"`
	Snapshot []byte `json:"snapshot"`
}

// ObserveRequest records observed traffic for a device: count requests
// (default 1) answered with class by the named model.
type ObserveRequest struct {
	Model string `json:"model"`
	Class int    `json:"class"`
	Count int    `json:"count,omitempty"`
}

// CacheDecisionResponse reports the caching policy's verdict for a
// device.
type CacheDecisionResponse struct {
	Model        string  `json:"model"`
	Cache        bool    `json:"cache"`
	Hot          []int   `json:"hot,omitempty"`
	Share        float64 `json:"share"`
	Observations float64 `json:"observations"`
}

// InferBatchResponse returns one answer per input, in order. Per-task
// expiry is reported via the result's Expired/Stages fields.
type InferBatchResponse struct {
	Results []InferResponse `json:"results"`
}

// ModelStats is the wire form of one model's serving counters.
type ModelStats struct {
	Submitted  uint64 `json:"submitted"`
	Answered   uint64 `json:"answered"`
	Expired    uint64 `json:"expired"`
	Unanswered uint64 `json:"unanswered"`
	Rejected   uint64 `json:"rejected"`
	Goodput    uint64 `json:"goodput"`
	QueueDepth int    `json:"queue_depth"`
	// DegradeLevel is the pool's load-shedding rung: 0 nominal, 1
	// forcing earlier early-exits, 2 also serving the f32 tier.
	DegradeLevel int     `json:"degrade_level"`
	P50MS        float64 `json:"p50_ms"`
	P99MS        float64 `json:"p99_ms"`
}

// StatsResponse reports serving counters for every actively served
// model.
type StatsResponse struct {
	Models map[string]ModelStats `json:"models"`
}

// CalibrateResponse reports the chosen entropy weight.
type CalibrateResponse struct {
	Alpha float64 `json:"alpha"`
}

// VersionResponse carries a model's snapshot content version: the hash
// of its canonical float64 snapshot encoding. Two nodes answering the
// same version hold bitwise-identical model bundles.
type VersionResponse struct {
	Version string `json:"version"`
}

// ClusterNodeStatus is one replica's row in a cluster router's status
// report.
type ClusterNodeStatus struct {
	// Base is the replica's base URL (its identity in the hash ring).
	Base string `json:"base"`
	// Healthy reports whether the router currently routes to the node.
	Healthy bool `json:"healthy"`
	// ConsecutiveFailures is the passive/active failure streak (resets
	// on success; FailThreshold of them ejects the node).
	ConsecutiveFailures int `json:"consecutive_failures"`
	// Ejections counts healthy→ejected transitions over the router's
	// lifetime.
	Ejections uint64 `json:"ejections"`
	// Outstanding is the number of proxied requests in flight.
	Outstanding int64 `json:"outstanding"`
	// Installed maps model name → snapshot version the router last
	// confirmed on the node.
	Installed map[string]string `json:"installed,omitempty"`
	// LastError is the most recent probe/replication failure, empty
	// when none.
	LastError string `json:"last_error,omitempty"`
	// Draining reports a planned drain in progress: the node is out of
	// the pick set while the router migrates its device trackers.
	Draining bool `json:"draining,omitempty"`
}

// ClusterStatusResponse is the GET /v1/cluster payload: the router's
// membership, health, replication, and traffic counters.
type ClusterStatusResponse struct {
	Nodes []ClusterNodeStatus `json:"nodes"`
	// Models maps model name → desired snapshot version (the router
	// store's view; replicas whose Installed entry differs are
	// divergent and will be re-pushed).
	Models map[string]string `json:"models"`
	// Proxied counts requests forwarded to replicas (attempts, not
	// client requests — a failover adds one).
	Proxied uint64 `json:"proxied"`
	// Failovers counts idempotent requests re-routed to a surviving
	// replica after a transient failure.
	Failovers uint64 `json:"failovers"`
	// PinnedFailures counts non-idempotent (device-pinned or mutating)
	// requests that failed without failover — the router never retries
	// those, so this is also the count of requests a node loss visibly
	// failed.
	PinnedFailures uint64 `json:"pinned_failures"`
	// Handoffs counts device trackers migrated to a new owner during
	// planned drains.
	Handoffs uint64 `json:"handoffs"`
	// Drains counts planned drains completed successfully.
	Drains uint64 `json:"drains"`
	// LostTrackers counts device trackers that could not be migrated:
	// devices pinned to a node that died or was force-removed without a
	// drain. Those devices restart cold on their new owner.
	LostTrackers uint64 `json:"lost_trackers"`
}

// AddNodeRequest is the POST /v1/cluster/nodes body: the base URL of
// the replica to join.
type AddNodeRequest struct {
	Base string `json:"base"`
}

// MembershipResponse reports the outcome of a membership change
// (add or remove).
type MembershipResponse struct {
	Status string `json:"status"`
	Base   string `json:"base"`
	// LostTrackers is the number of device trackers forfeited by a
	// forced removal (always 0 for add and drain).
	LostTrackers int `json:"lost_trackers,omitempty"`
}

// DrainResponse reports a completed planned drain: how many pinned
// devices the node owned and how many trackers were handed off to new
// owners (devices with no observations yet have nothing to migrate).
type DrainResponse struct {
	Base     string `json:"base"`
	Devices  int    `json:"devices"`
	Handoffs int    `json:"handoffs"`
}

// ErrorResponse is the JSON error body.
type ErrorResponse struct {
	Error string `json:"error"`
}

// Server wraps a core.Service with HTTP handlers.
type Server struct {
	svc *core.Service
	mux *http.ServeMux
	// draining flips /v1/readyz to 503 while the process shuts down, so
	// load balancers stop routing new work before in-flight requests
	// finish (/v1/healthz keeps answering 200: the process is alive,
	// just not accepting).
	draining atomic.Bool
}

// SetDraining marks the server as draining (or clears the mark).
// Readiness probes observe the change on their next poll.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Request-body caps, the one table of them: the replica's handlers and
// the cluster router's routes both read it. Dataset-bearing requests
// get a generous cap; the inference hot path gets a small one so a
// misbehaving client cannot buffer hundreds of megabytes into a worker.
const (
	MaxTrainBody    = 256 << 20 // train/calibrate/predictor/reduce payloads
	MaxSnapshotBody = 256 << 20 // PUT snapshot
	MaxInferBody    = 1 << 20   // single-sample infer
	MaxBatchBody    = 32 << 20  // infer-batch
	MaxObserveBody  = 4 << 10   // device observations
	// MaxDeviceStateBody caps PUT /v1/devices/{id}/state: a tracker
	// state is a few floats per class, so 64 KiB covers thousands of
	// classes while keeping a hostile migration payload small.
	MaxDeviceStateBody = 64 << 10
	// MaxAdminBody caps a cluster router's membership requests
	// (AddNodeRequest: one URL).
	MaxAdminBody = 4 << 10
)

// NewServer builds the HTTP front end.
func NewServer(svc *core.Service) *Server {
	s := &Server{svc: svc, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/readyz", s.handleReady)
	s.mux.HandleFunc("GET /v1/models", s.handleModels)
	s.mux.HandleFunc("POST /v1/models/{name}/train", s.handleTrain)
	s.mux.HandleFunc("POST /v1/models/{name}/calibrate", s.handleCalibrate)
	s.mux.HandleFunc("POST /v1/models/{name}/predictor", s.handlePredictor)
	s.mux.HandleFunc("POST /v1/models/{name}/infer", s.handleInfer)
	s.mux.HandleFunc("POST /v1/models/{name}/infer-batch", s.handleInferBatch)
	s.mux.HandleFunc("GET /v1/models/{name}/snapshot", s.handleSnapshotGet)
	s.mux.HandleFunc("PUT /v1/models/{name}/snapshot", s.handleSnapshotPut)
	s.mux.HandleFunc("GET /v1/models/{name}/version", s.handleSnapshotVersion)
	s.mux.HandleFunc("POST /v1/models/{name}/reduce", s.handleReduce)
	s.mux.HandleFunc("POST /v1/devices/{id}/observe", s.handleObserve)
	s.mux.HandleFunc("GET /v1/devices/{id}/cache-decision", s.handleCacheDecision)
	s.mux.HandleFunc("GET /v1/devices/{id}/subset-model", s.handleSubsetModel)
	s.mux.HandleFunc("GET /v1/devices/{id}/state", s.handleDeviceStateGet)
	s.mux.HandleFunc("PUT /v1/devices/{id}/state", s.handleDeviceStatePut)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	return s
}

// DecodeBody JSON-decodes a capped request body into v, writing the
// error response (413 for an oversized body, 400 otherwise) itself and
// returning false on failure. The infer endpoints do not come through
// here: they read the body whole (ReadBody) and decode it with the
// codec in wire.go.
func DecodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v); err != nil {
		WriteBodyError(w, "decoding request", err)
		return false
	}
	return true
}

// WriteBodyError answers a request whose body could not be taken in:
// 413 when err is the cap of an http.MaxBytesReader, 400 with what
// failed otherwise.
func WriteBodyError(w http.ResponseWriter, what string, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		WriteError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
		return
	}
	WriteError(w, http.StatusBadRequest, fmt.Errorf("%s: %w", what, err))
}

// bodyPresize bounds how much ReadBody allocates on a Content-Length
// header's word, and how large a buffer the body pool keeps: a longer
// body grows the buffer as its bytes actually arrive.
const bodyPresize = 1 << 20

// ReadBody reads the whole request body, capped at limit, into buf
// (from its start; nil allocates) and returns the filled buffer, grown
// if it had to be. The buffer is sized once from Content-Length when
// the header is there and honest. On failure ReadBody has written the
// error response and returns false.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64, buf []byte) ([]byte, bool) {
	buf = buf[:0]
	// One byte beyond the body, so that the read that reports EOF has
	// somewhere to go.
	if want := int(min(max(r.ContentLength, 511), limit, bodyPresize)) + 1; cap(buf) < want {
		buf = make([]byte, 0, want)
	}
	body := http.MaxBytesReader(w, r.Body, limit)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, true
		}
		if err != nil {
			WriteBodyError(w, "reading request", err)
			return buf, false
		}
	}
}

// BodyBuf is a pooled buffer for the bytes of one request body: the
// replica reads an infer body into one, the router reads the bodies it
// may have to send twice, the client encodes into one. Whoever holds it
// owns B; Release hands both back. Only bytes are pooled, never decoded
// rows: sched.Live keeps a request's rows after Submit returns early,
// so nothing downstream of the decoder can say when a row is free.
type BodyBuf struct{ B []byte }

var bodyPool = sync.Pool{New: func() any { return new(BodyBuf) }}

// GetBodyBuf takes a buffer from the pool; its contents are stale.
func GetBodyBuf() *BodyBuf { return bodyPool.Get().(*BodyBuf) }

// Release returns b to the pool. A buffer something may still be
// reading — the request body of an HTTP attempt that failed or was
// answered without being read, whose transport may still be writing
// it out — must be dropped instead.
func (b *BodyBuf) Release() {
	if cap(b.B) <= bodyPresize+1 {
		bodyPool.Put(b)
	}
}

// ReadBodyBuf is ReadBody into a pooled buffer, which the caller
// Releases (or drops) when done with the bytes.
func ReadBodyBuf(w http.ResponseWriter, r *http.Request, limit int64) (*BodyBuf, bool) {
	bb := GetBodyBuf()
	var ok bool
	if bb.B, ok = ReadBody(w, r, limit, bb.B); !ok {
		bb.Release()
		return nil, false
	}
	return bb, true
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

func (s *Server) handleModels(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, map[string][]string{"models": s.svc.Models()})
}

func (s *Server) handleTrain(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req TrainRequest
	if !DecodeBody(w, r, MaxTrainBody, &req) {
		return
	}
	set, opts, err := req.options()
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	entry, err := s.svc.Train(name, set, opts)
	if err != nil {
		writeFailure(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, TrainResponse{Name: entry.Name, StageAccs: entry.StageAccs})
}

func (s *Server) handleCalibrate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var payload DataPayload
	if !DecodeBody(w, r, MaxTrainBody, &payload) {
		return
	}
	set, err := payload.ToSet()
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	alpha, err := s.svc.Calibrate(name, set, calib.DefaultEntropyCalibConfig())
	if err != nil {
		writeFailure(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, CalibrateResponse{Alpha: alpha})
}

func (s *Server) handlePredictor(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var payload DataPayload
	if !DecodeBody(w, r, MaxTrainBody, &payload) {
		return
	}
	set, err := payload.ToSet()
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.svc.BuildPredictor(name, set, sched.DefaultGPPredictorConfig()); err != nil {
		writeFailure(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	body, ok := ReadBodyBuf(w, r, MaxInferBody)
	if !ok {
		return
	}
	frame := isFrame(r.Header)
	decode := decodeInferRequest
	if frame {
		decode = decodeFrameRequest
	}
	var req InferRequest
	err := decode(body.B, &req)
	body.Release() // the decoded request shares nothing with it
	if err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	if len(req.Input) == 0 {
		WriteError(w, http.StatusBadRequest, errors.New("empty input"))
		return
	}
	// Chaos seam: an injected fault here models a handler-side I/O
	// failure after the body was read but before the scheduler saw the
	// task — the client must get a clean 503, never a hang.
	if err := failpoint.Inject("service.infer"); err != nil {
		writeFailure(w, err)
		return
	}
	// The decoder allocated the row for this request alone, so handing
	// ownership to Infer (which makes no defensive copy) is safe.
	resp, err := s.svc.Infer(r.Context(), name, req.Input)
	if err != nil && !errors.Is(err, sched.ErrUnanswered) {
		writeFailure(w, err)
		return
	}
	s.observeAnswer(req.Device, name, resp)
	one := [1]InferResponse{inferResponse(resp)}
	writeAnswers(w, frame, one[:], one[0])
}

func (s *Server) handleInferBatch(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	body, ok := ReadBodyBuf(w, r, MaxBatchBody)
	if !ok {
		return
	}
	frame := isFrame(r.Header)
	decode := decodeInferBatchRequest
	if frame {
		decode = decodeFrame
	}
	var req InferBatchRequest
	err := decode(body.B, &req)
	body.Release()
	if err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	if len(req.Inputs) == 0 {
		WriteError(w, http.StatusBadRequest, errors.New("empty batch"))
		return
	}
	for i, in := range req.Inputs {
		if len(in) == 0 {
			WriteError(w, http.StatusBadRequest, fmt.Errorf("empty input at index %d", i))
			return
		}
	}
	if err := failpoint.Inject("service.infer-batch"); err != nil {
		writeFailure(w, err)
		return
	}
	// Like handleInfer, the decoded rows are this request's own;
	// InferBatch takes ownership without copying.
	resps, err := s.svc.InferBatch(r.Context(), name, req.Inputs)
	if err != nil {
		writeFailure(w, err)
		return
	}
	// Aggregate tracker feeding per predicted class: one ObserveN-backed
	// call per distinct class instead of per batch element, keeping lock
	// traffic off the hot path.
	var byClass map[int]int
	if req.Device != "" {
		byClass = make(map[int]int)
	}
	out := InferBatchResponse{Results: make([]InferResponse, len(resps))}
	for i, resp := range resps {
		if byClass != nil && resp.Pred >= 0 {
			byClass[resp.Pred]++
		}
		out.Results[i] = inferResponse(resp)
	}
	for class, n := range byClass {
		// Best-effort, like observeAnswer.
		_ = s.svc.Observe(req.Device, name, class, n)
	}
	writeAnswers(w, frame, out.Results, out)
}

// inferResponse is the wire form of one scheduler answer.
func inferResponse(resp sched.Response) InferResponse {
	return InferResponse{
		Pred:      resp.Pred,
		Conf:      resp.Conf,
		Stages:    resp.Stages,
		Expired:   resp.Expired,
		LatencyMS: float64(resp.Latency.Microseconds()) / 1000,
	}
}

// writeAnswers answers a 200: results as an answer frame to a frame, v
// as JSON to anything else.
func writeAnswers(w http.ResponseWriter, frame bool, results []InferResponse, v any) {
	if !frame {
		WriteJSON(w, http.StatusOK, v)
		return
	}
	out := GetBodyBuf()
	out.B = appendAnswers(out.B[:0], results)
	w.Header().Set("Content-Type", FrameType)
	w.Header().Set("Content-Length", strconv.Itoa(len(out.B)))
	_, _ = w.Write(out.B) // an I/O failure the client already observes
	out.Release()
}

// observeAnswer feeds one answered prediction into the device's
// frequency tracker. Best-effort: serving an answer never fails because
// tracking did.
func (s *Server) observeAnswer(device, model string, resp sched.Response) {
	if device == "" || resp.Pred < 0 {
		return
	}
	_ = s.svc.Observe(device, model, resp.Pred, 1)
}

func (s *Server) handleSnapshotGet(w http.ResponseWriter, r *http.Request) {
	precision, ok := precisionParam(w, r)
	if !ok {
		return
	}
	raw, err := s.svc.SnapshotBytesPrecision(r.PathValue("name"), precision)
	if err != nil {
		writeFailure(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(raw)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(raw)
}

// handleSnapshotVersion reports the model's snapshot content version.
// Encoding is deterministic, so the hash of the canonical float64
// bundle identifies the model state; the cluster router compares it
// against its own store to detect divergence without moving bytes.
func (s *Server) handleSnapshotVersion(w http.ResponseWriter, r *http.Request) {
	raw, err := s.svc.SnapshotBytes(r.PathValue("name"))
	if err != nil {
		writeFailure(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, VersionResponse{Version: snapshot.VersionOf(raw)})
}

func (s *Server) handleSnapshotPut(w http.ResponseWriter, r *http.Request) {
	raw, ok := ReadBody(w, r, MaxSnapshotBody, nil)
	if !ok {
		return
	}
	if err := s.svc.InstallSnapshotBytes(r.PathValue("name"), raw); err != nil {
		writeFailure(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReduce(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req ReduceRequest
	if !DecodeBody(w, r, MaxTrainBody, &req) {
		return
	}
	switch req.Precision {
	case "", core.PrecisionF64, core.PrecisionF32:
	default:
		WriteError(w, http.StatusBadRequest, fmt.Errorf("bad precision %q (want f64 or f32)", req.Precision))
		return
	}
	if req.Hidden < 0 || req.Epochs < 0 {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("hidden %d, epochs %d: neither may be negative (0 is the default)", req.Hidden, req.Epochs))
		return
	}
	var set *dataset.Set
	if req.Data != nil {
		var err error
		if set, err = req.Data.ToSet(); err != nil {
			WriteError(w, http.StatusBadRequest, err)
			return
		}
	}
	sub, err := s.svc.Reduce(name, set, req.Hot, req.Hidden, req.Epochs)
	if err != nil {
		writeFailure(w, err)
		return
	}
	writeSubset(w, sub, req.Precision == core.PrecisionF32)
}

// precisionParam reads the optional ?precision= query parameter ("",
// "f64", or "f32"), writing the 400 itself on an unknown value.
func precisionParam(w http.ResponseWriter, r *http.Request) (string, bool) {
	p := r.URL.Query().Get("precision")
	switch p {
	case "", core.PrecisionF64, core.PrecisionF32:
		return p, true
	}
	WriteError(w, http.StatusBadRequest, fmt.Errorf("bad precision %q (want f64 or f32)", p))
	return "", false
}

func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	device := r.PathValue("id")
	var req ObserveRequest
	if !DecodeBody(w, r, MaxObserveBody, &req) {
		return
	}
	if err := s.svc.Observe(device, req.Model, req.Class, req.Count); err != nil {
		writeFailure(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleCacheDecision(w http.ResponseWriter, r *http.Request) {
	d, err := s.svc.CacheDecision(r.PathValue("id"))
	if err != nil {
		writeFailure(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, CacheDecisionResponse{
		Model:        d.Model,
		Cache:        d.Cache,
		Hot:          d.Hot,
		Share:        d.Share,
		Observations: d.Observations,
	})
}

func (s *Server) handleSubsetModel(w http.ResponseWriter, r *http.Request) {
	precision, ok := precisionParam(w, r)
	if !ok {
		return
	}
	hidden, epochs := 0, 0
	q := r.URL.Query()
	if v := q.Get("hidden"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			WriteError(w, http.StatusBadRequest, fmt.Errorf("bad hidden %q", v))
			return
		}
		hidden = n
	}
	if v := q.Get("epochs"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			WriteError(w, http.StatusBadRequest, fmt.Errorf("bad epochs %q", v))
			return
		}
		epochs = n
	}
	sub, _, err := s.svc.DeviceSubset(r.PathValue("id"), hidden, epochs)
	if err != nil {
		writeFailure(w, err)
		return
	}
	writeSubset(w, sub, precision == core.PrecisionF32)
}

// handleDeviceStateGet exports a device's cache state (model name +
// frequency tracker) in snapshot wire format. The cluster router calls
// this during a planned drain to migrate the tracker to the device's
// next owner; export does not disturb the live tracker.
func (s *Server) handleDeviceStateGet(w http.ResponseWriter, r *http.Request) {
	model, ts, err := s.svc.ExportDeviceState(r.PathValue("id"))
	if err != nil {
		writeFailure(w, err)
		return
	}
	var buf bytes.Buffer
	if err := snapshot.EncodeDeviceState(&buf, &snapshot.DeviceState{Model: model, Tracker: ts}); err != nil {
		WriteError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}

// handleDeviceStatePut installs a migrated device tracker. The payload
// is CRC-framed and validated (finite counts, scale range, class count
// matching the target model), so a truncated or cross-model migration
// is rejected with a 4xx and the device's existing state is untouched.
func (s *Server) handleDeviceStatePut(w http.ResponseWriter, r *http.Request) {
	raw, ok := ReadBody(w, r, MaxDeviceStateBody, nil)
	if !ok {
		return
	}
	ds, err := snapshot.DecodeDeviceState(bytes.NewReader(raw))
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.svc.ImportDeviceState(r.PathValue("id"), ds.Model, ds.Tracker); err != nil {
		writeFailure(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// writeSubset serializes a reduced model into the wire response; f32
// selects the half-size float32 artifact kind (the edge-download form).
func writeSubset(w http.ResponseWriter, sub *cache.SubsetModel, f32 bool) {
	var buf bytes.Buffer
	encode := snapshot.EncodeSubset
	if f32 {
		encode = snapshot.EncodeSubsetF32
	}
	if err := encode(&buf, sub); err != nil {
		WriteError(w, http.StatusInternalServerError, err)
		return
	}
	WriteJSON(w, http.StatusOK, SubsetModelResponse{
		Hot:      sub.Hot,
		Params:   sub.Params(),
		Snapshot: buf.Bytes(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	stats := s.svc.Stats()
	out := StatsResponse{Models: make(map[string]ModelStats, len(stats))}
	for name, st := range stats {
		out.Models[name] = ModelStats{
			Submitted:    st.Submitted,
			Answered:     st.Answered,
			Expired:      st.Expired,
			Unanswered:   st.Unanswered,
			Rejected:     st.Rejected,
			Goodput:      st.Goodput,
			QueueDepth:   st.QueueDepth,
			DegradeLevel: st.DegradeLevel,
			P50MS:        float64(st.P50.Microseconds()) / 1000,
			P99MS:        float64(st.P99.Microseconds()) / 1000,
		}
	}
	WriteJSON(w, http.StatusOK, out)
}

// statusFor maps a core/sched error to an HTTP status by errors.Is /
// errors.As alone, so rewording a message cannot change a status.
func statusFor(err error) int {
	var ov *sched.ErrOverloaded
	var fp *failpoint.Error
	switch {
	case errors.As(err, &ov):
		return http.StatusTooManyRequests
	case errors.Is(err, sched.ErrBatchTooLarge): // permanent, unlike a 429: clients must not retry it
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, core.ErrClosed), errors.Is(err, sched.ErrStopped):
		return http.StatusServiceUnavailable
	case errors.As(err, &fp): // injected faults read as transient
		return http.StatusServiceUnavailable
	case errors.Is(err, core.ErrUnknownModel), errors.Is(err, core.ErrUnknownDevice):
		return http.StatusNotFound
	case errors.Is(err, core.ErrBadDeviceState),
		errors.Is(err, core.ErrInputWidth),
		errors.Is(err, core.ErrEmptyDevice),
		errors.Is(err, core.ErrClassRange),
		errors.Is(err, core.ErrLabelRange),
		errors.Is(err, core.ErrInstall):
		return http.StatusBadRequest
	case errors.Is(err, core.ErrCachingNotJustified), errors.Is(err, core.ErrNoTrainingData):
		return http.StatusConflict
	}
	return http.StatusInternalServerError
}

// writeFailure maps err to a status with statusFor and writes the JSON
// error body. Admission rejections additionally carry a Retry-After
// header with the scheduler's drain estimate (rounded up to whole
// seconds, the header's coarsest portable unit, minimum 1).
func writeFailure(w http.ResponseWriter, err error) {
	var ov *sched.ErrOverloaded
	if errors.As(err, &ov) {
		secs := int64((ov.RetryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	WriteError(w, statusFor(err), err)
}

// encodeBuf is a pooled JSON encode buffer: responses are marshaled
// into the buffer (one encoder per buffer, built once) and written with
// an explicit Content-Length, so the per-request service overhead is a
// pool round-trip instead of an encoder + scratch allocation.
type encodeBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var encodePool = sync.Pool{New: func() any {
	e := &encodeBuf{}
	e.enc = json.NewEncoder(&e.buf)
	return e
}}

// encodePoolMaxCap stops one giant response (a dataset echo, say) from
// pinning its buffer in the pool forever.
const encodePoolMaxCap = 1 << 20

// WriteJSON answers with status and v as JSON, the Content-Length set.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	e := encodePool.Get().(*encodeBuf)
	e.buf.Reset()
	if err := e.enc.Encode(v); err != nil {
		// Marshal failures are programming errors (all payloads are
		// plain structs); keep the old behavior of reporting nothing
		// past the headers.
		encodePool.Put(e)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(e.buf.Len()))
	w.WriteHeader(status)
	// Write errors at this point can only be I/O failures the client
	// already observes.
	_, _ = w.Write(e.buf.Bytes())
	if e.buf.Cap() <= encodePoolMaxCap {
		encodePool.Put(e)
	}
}

// WriteError answers with status and err as the JSON error body.
func WriteError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, ErrorResponse{Error: err.Error()})
}
