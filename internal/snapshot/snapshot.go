// Package snapshot gives every trained Eugene artifact a durable,
// versioned binary form: staged model weights and topology, the
// calibration alpha, and the GP predictor's piecewise-linear profiles
// and priors, plus the reduced hot-class subset models shipped to
// devices (paper Section II-B). Snapshots are what make Eugene a
// *service* rather than a process — the server can restart without
// forgetting models, and clients can download artifacts over the wire.
//
// Guarantees:
//
//   - Round trip is lossless: every float64 is stored as its IEEE-754
//     bit pattern, so a restored model's Infer/InferBatch outputs are
//     bitwise identical to the original's. The float32 artifact kinds
//     (EncodeModelF32/EncodeSubsetF32, half the bytes) round weights to
//     serving precision once at encode; decode widens them back, and
//     re-encoding at f32 reproduces the file byte for byte.
//   - Files are framed with a magic string, a format version, and a
//     CRC-32 of the body; truncated, corrupted, or trailing-garbage
//     files are rejected at decode, never half-applied.
//   - Saves are atomic: bytes land in a temp file in the target
//     directory which is fsynced and renamed over the destination, so a
//     crash mid-write leaves either the old snapshot or the new one.
//
// The wire format is little-endian with fixed-width lengths; see
// FormatVersion for compatibility rules (decoders accept only versions
// they know, and the committed golden fixture in testdata/ pins the
// format so accidental codec changes fail CI).
package snapshot

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"

	"eugene/internal/cache"
	"eugene/internal/failpoint"
	"eugene/internal/gp"
	"eugene/internal/nn"
	"eugene/internal/sched"
	"eugene/internal/staged"
	"eugene/internal/tensor"
)

// magic identifies Eugene snapshot files.
const magic = "EUGSNP01"

// FormatVersion is the current codec version. Decoders reject files
// written by unknown (newer) versions; bumping this requires keeping
// decode support for every older version still in the golden fixtures.
const FormatVersion = 1

// Artifact kinds, one byte after the version. The F32 kinds carry the
// same structure as their float64 twins but store Dense weight/bias
// payloads as IEEE-754 float32 bits — half the bytes, the natural wire
// form for the f32 serving tier and for subset models downloaded to
// bandwidth-constrained edge devices. Decoders accept either kind and
// widen f32 payloads to float64 (losslessly reversible: a re-encode at
// f32 reproduces the file byte for byte).
const (
	kindModel       = 1 // full staged model + calibration + predictor bundle
	kindSubset      = 2 // reduced hot-class device model
	kindModelF32    = 3 // model bundle with float32 dense payloads
	kindSubsetF32   = 4 // subset model with float32 dense payloads
	kindDeviceState = 5 // per-device frequency-tracker state (drain handoff)
)

// Layer tags for the nn layer tree.
const (
	tagDense      = 1
	tagReLU       = 2
	tagDropout    = 3
	tagResidual   = 4
	tagSequential = 5
	tagDense32    = 6 // dense with float32 weight/bias payloads
)

// Decode-time sanity bounds: a CRC-valid but hostile file must not be
// able to demand absurd allocations or unbounded recursion.
const (
	maxElems  = 1 << 26 // float64s per tensor (512 MiB)
	maxStages = 1 << 10
	maxLayers = 1 << 14 // layers per Sequential
	maxDepth  = 64      // layer-tree nesting
)

// dropoutSeed seeds restored Dropout layers. Dropout is the identity at
// inference, so the stream never affects served answers; a fixed seed
// just keeps restored models deterministic if one is later fine-tuned.
const dropoutSeed = 1

// ModelSnapshot bundles everything the registry knows about one trained
// model: the staged network, the chosen entropy-calibration alpha (0 if
// uncalibrated), the recorded per-stage accuracies, and the GP
// confidence predictor (nil if never built).
type ModelSnapshot struct {
	Model     *staged.Model
	Alpha     float64
	StageAccs []float64
	Pred      *sched.GPPredictor
}

// VersionOf returns the content version of encoded snapshot bytes: a
// truncated SHA-256 over the exact byte stream. Because encoding is
// deterministic (fixed field order, no map iteration) and a
// decode→re-encode round trip is byte-identical (the golden-fixture CI
// gate), the version computed over a pushed snapshot equals the version
// a replica reports for the installed model — the equality the cluster
// router's divergence detection rests on.
func VersionOf(raw []byte) string {
	sum := sha256.Sum256(raw)
	return fmt.Sprintf("sha256:%x", sum[:16])
}

// EncodeModel writes the bundle to w in snapshot format with float64
// weight payloads (lossless for the training weights).
func EncodeModel(w io.Writer, s *ModelSnapshot) error {
	raw, err := MarshalModel(s, false)
	return writeFile(w, raw, err)
}

// EncodeModelF32 writes the bundle with float32 dense payloads — about
// half the bytes of EncodeModel. Weights are rounded to float32 (the
// serving tier's precision); calibration alpha, stage accuracies, and
// the predictor's PWL profiles stay float64.
func EncodeModelF32(w io.Writer, s *ModelSnapshot) error {
	raw, err := MarshalModel(s, true)
	return writeFile(w, raw, err)
}

// MarshalModel returns the bundle in snapshot format: the bytes
// EncodeModel writes, or EncodeModelF32's when f32 is set. The body is
// encoded into the returned slice once, behind room left for the header,
// and framed where it lies.
func MarshalModel(s *ModelSnapshot, f32 bool) ([]byte, error) {
	if s == nil || s.Model == nil {
		return nil, fmt.Errorf("snapshot: nil model")
	}
	m := s.Model
	params := nn.ParamCount(m.Stem)
	for _, st := range m.Stages {
		params += nn.ParamCount(st.Body) + nn.ParamCount(st.Head)
	}
	e := newEncoder(f32, params)
	e.model(m)
	e.f64(s.Alpha)
	e.f64s(s.StageAccs)
	e.bool(s.Pred != nil)
	if s.Pred != nil {
		priors := s.Pred.StagePriors()
		profiles := s.Pred.Profiles()
		e.f64s(priors)
		for from := range priors {
			for to := from + 1; to < len(priors); to++ {
				pwl := profiles[from][to]
				if pwl == nil {
					return nil, fmt.Errorf("snapshot: predictor profile %d→%d missing", from, to)
				}
				e.f64s(pwl.Knots)
				e.f64s(pwl.Vals)
			}
		}
	}
	if e.err != nil {
		return nil, e.err
	}
	kind := byte(kindModel)
	if f32 {
		kind = kindModelF32
	}
	return e.frame(kind), nil
}

// DecodeModel reads a model bundle, verifying framing, checksum, and
// structural consistency (layer widths, stage topology, predictor
// profiles) so a malformed file cannot panic a worker later.
func DecodeModel(r io.Reader) (*ModelSnapshot, error) {
	raw, err := readAll(r)
	if err != nil {
		return nil, err
	}
	return UnmarshalModel(raw)
}

// UnmarshalModel is DecodeModel on bytes the caller already holds: it
// decodes straight from raw, with every check DecodeModel makes. The
// result shares no memory with raw.
func UnmarshalModel(raw []byte) (*ModelSnapshot, error) {
	kind, body, err := deframe(raw, kindModel, kindModelF32)
	if err != nil {
		return nil, err
	}
	d := &decoder{b: body, dense32: kind == kindModelF32}
	m, err := d.model()
	if err != nil {
		return nil, err
	}
	s := &ModelSnapshot{Model: m}
	s.Alpha = d.f64()
	s.StageAccs = d.f64s()
	if d.bool() {
		priors := d.f64s()
		if len(priors) > maxStages {
			return nil, fmt.Errorf("snapshot: %d predictor stages", len(priors))
		}
		profiles := make([][]*gp.PiecewiseLinear, len(priors))
		for from := range priors {
			profiles[from] = make([]*gp.PiecewiseLinear, len(priors))
		}
		for from := range priors {
			for to := from + 1; to < len(priors); to++ {
				pwl := &gp.PiecewiseLinear{Knots: d.f64s(), Vals: d.f64s()}
				profiles[from][to] = pwl
			}
		}
		if d.err != nil {
			return nil, d.err
		}
		pred, err := sched.RestoreGPPredictor(priors, profiles)
		if err != nil {
			return nil, fmt.Errorf("snapshot: %w", err)
		}
		if pred.NumStages() != m.NumStages() {
			return nil, fmt.Errorf("snapshot: predictor covers %d stages, model has %d", pred.NumStages(), m.NumStages())
		}
		s.Pred = pred
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	return s, nil
}

// EncodeSubset writes a reduced hot-class device model to w with
// float64 payloads.
func EncodeSubset(w io.Writer, m *cache.SubsetModel) error {
	return encodeSubset(w, m, false)
}

// EncodeSubsetF32 writes a reduced device model with float32 dense
// payloads — half the download for an edge device fetching its cached
// hot-class model.
func EncodeSubsetF32(w io.Writer, m *cache.SubsetModel) error {
	return encodeSubset(w, m, true)
}

func encodeSubset(w io.Writer, m *cache.SubsetModel, f32 bool) error {
	if m == nil || m.Net == nil {
		return fmt.Errorf("snapshot: nil subset model")
	}
	e := newEncoder(f32, nn.ParamCount(m.Net))
	e.u32(uint32(m.InputWidth()))
	e.ints(m.Hot)
	e.layer(m.Net)
	if e.err != nil {
		return e.err
	}
	kind := byte(kindSubset)
	if f32 {
		kind = kindSubsetF32
	}
	return writeFile(w, e.frame(kind), nil)
}

// DecodeSubset reads a reduced device model (either precision).
func DecodeSubset(r io.Reader) (*cache.SubsetModel, error) {
	raw, err := readAll(r)
	if err != nil {
		return nil, err
	}
	kind, body, err := deframe(raw, kindSubset, kindSubsetF32)
	if err != nil {
		return nil, err
	}
	d := &decoder{b: body, dense32: kind == kindSubsetF32}
	in := int(d.u32())
	hot := d.ints()
	l, err := d.layer(0)
	if err != nil {
		return nil, err
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	net, ok := l.(*nn.Sequential)
	if !ok {
		return nil, fmt.Errorf("snapshot: subset net is %T, want *nn.Sequential", l)
	}
	if out, err := nn.OutputWidth(net, in); err != nil {
		return nil, fmt.Errorf("snapshot: subset net: %w", err)
	} else if out != len(hot)+1 {
		return nil, fmt.Errorf("snapshot: subset net outputs %d classes for %d hot + other", out, len(hot))
	}
	sub, err := cache.RestoreSubset(net, hot, in)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	return sub, nil
}

// SaveModel atomically writes the bundle to path: bytes go to a temp
// file in the same directory, are fsynced, and the temp file is renamed
// over path, so a crash mid-save never leaves a torn snapshot.
func SaveModel(path string, s *ModelSnapshot) error {
	return saveAtomic(path, func(w io.Writer) error { return EncodeModel(w, s) })
}

// LoadModel reads a bundle from path.
func LoadModel(path string) (*ModelSnapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := DecodeModel(f)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %s: %w", path, err)
	}
	return s, nil
}

// saveAtomic writes via temp-file-then-rename in path's directory.
func saveAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("snapshot: creating temp file: %w", err)
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err := write(tmp); err != nil {
		return err
	}
	if err := failpoint.Inject("snapshot.save.write"); err != nil {
		return fmt.Errorf("snapshot: writing %s: %w", tmp.Name(), err)
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("snapshot: syncing %s: %w", tmp.Name(), err)
	}
	if err := tmp.Chmod(0o644); err != nil {
		return fmt.Errorf("snapshot: chmod %s: %w", tmp.Name(), err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("snapshot: closing %s: %w", tmp.Name(), err)
	}
	name := tmp.Name()
	tmp = nil
	if err := failpoint.Inject("snapshot.save.rename"); err != nil {
		//lint:ignore uncheckederr best-effort cleanup of the temp file; the injected failure is the error that matters
		os.Remove(name)
		return fmt.Errorf("snapshot: publishing %s: %w", path, err)
	}
	if err := os.Rename(name, path); err != nil {
		//lint:ignore uncheckederr best-effort cleanup of the temp file; the rename failure below is the error that matters
		os.Remove(name)
		return fmt.Errorf("snapshot: publishing %s: %w", path, err)
	}
	return nil
}

// hdrLen is a frame's header: the magic, then the version (4 bytes),
// the kind (1) and the body's length (8).
const hdrLen = len(magic) + 13

// maxFile is the most bytes a decoder reads; a longer file fails the
// body-length check.
const maxFile = 1 << 31

// writeFile hands an encoded file to w in one Write, or passes on the
// encoder's error.
func writeFile(w io.Writer, raw []byte, err error) error {
	if err != nil {
		return err
	}
	if _, err := w.Write(raw); err != nil {
		return fmt.Errorf("snapshot: writing: %w", err)
	}
	return nil
}

// readAll reads a file for the decoders, up to maxFile bytes.
func readAll(r io.Reader) ([]byte, error) {
	raw, err := io.ReadAll(io.LimitReader(r, maxFile))
	if err != nil {
		return nil, fmt.Errorf("snapshot: reading: %w", err)
	}
	return raw, nil
}

// deframe validates magic, version, kind (one of wantKinds), length,
// and checksum of the file raw, magic | version | kind | body-length |
// body | crc32 with the checksum over version through body, and returns
// the matched kind and the body, a subslice of raw.
func deframe(raw []byte, wantKinds ...byte) (byte, []byte, error) {
	raw = raw[:min(len(raw), maxFile)]
	if len(raw) < hdrLen+4 {
		return 0, nil, fmt.Errorf("snapshot: file truncated (%d bytes)", len(raw))
	}
	if string(raw[:len(magic)]) != magic {
		return 0, nil, fmt.Errorf("snapshot: bad magic %q", raw[:len(magic)])
	}
	meta := raw[len(magic):hdrLen]
	version := binary.LittleEndian.Uint32(meta[0:4])
	if version == 0 || version > FormatVersion {
		return 0, nil, fmt.Errorf("snapshot: unsupported format version %d (this build reads ≤ %d)", version, FormatVersion)
	}
	kind := meta[4]
	ok := false
	for _, w := range wantKinds {
		if kind == w {
			ok = true
			break
		}
	}
	if !ok {
		return 0, nil, fmt.Errorf("snapshot: artifact kind %d, want one of %v", kind, wantKinds)
	}
	bodyLen := binary.LittleEndian.Uint64(meta[5:13])
	if bodyLen != uint64(len(raw)-hdrLen-4) {
		return 0, nil, fmt.Errorf("snapshot: body length %d does not match file (%d)", bodyLen, len(raw)-hdrLen-4)
	}
	body := raw[hdrLen : len(raw)-4]
	sum := crc32.ChecksumIEEE(raw[len(magic) : len(raw)-4])
	if got := binary.LittleEndian.Uint32(raw[len(raw)-4:]); got != sum {
		return 0, nil, fmt.Errorf("snapshot: checksum mismatch (file %08x, computed %08x)", got, sum)
	}
	return kind, body, nil
}

// encoder appends the little-endian body primitives to one buffer that
// becomes the file: newEncoder leaves room for the header in front, and
// frame fills it in and appends the checksum. It captures the first
// structural error, such as an unsupported layer type.
type encoder struct {
	b   []byte
	err error
	// dense32 selects float32 dense payloads (tagDense32) — the f32
	// artifact kinds.
	dense32 bool
	// wt is scratch for a dense layer's weights in the file's order.
	wt *tensor.Matrix
}

// newEncoder sizes the buffer for a body holding about params dense
// weights, so that encoding a model grows it once.
func newEncoder(dense32 bool, params int) *encoder {
	width := 8
	if dense32 {
		width = 4
	}
	return &encoder{b: make([]byte, hdrLen, hdrLen+width*params+4096), dense32: dense32}
}

// frame completes the file around the body: magic | version | kind |
// body-length | body | crc32, with the checksum over version through
// body.
func (e *encoder) frame(kind byte) []byte {
	b := e.b
	copy(b, magic)
	meta := b[len(magic):hdrLen]
	binary.LittleEndian.PutUint32(meta[0:4], FormatVersion)
	meta[4] = kind
	binary.LittleEndian.PutUint64(meta[5:13], uint64(len(b)-hdrLen))
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b[len(magic):]))
}

func (e *encoder) u8(v byte) { e.b = append(e.b, v) }
func (e *encoder) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

func (e *encoder) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }

func (e *encoder) f64(v float64) { e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v)) }

func (e *encoder) f64s(v []float64) {
	e.u32(uint32(len(v)))
	b := slices.Grow(e.b, 8*len(v))
	for _, x := range v {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	e.b = b
}

// f32s writes v rounded to float32 bit patterns — the half-width dense
// payload of the f32 artifact kinds.
func (e *encoder) f32s(v []float64) {
	e.u32(uint32(len(v)))
	b := slices.Grow(e.b, 4*len(v))
	for _, x := range v {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(float32(x)))
	}
	e.b = b
}

func (e *encoder) ints(v []int) {
	e.u32(uint32(len(v)))
	b := slices.Grow(e.b, 8*len(v))
	for _, x := range v {
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(x)))
	}
	e.b = b
}

func (e *encoder) u32s(v []int) {
	e.u32(uint32(len(v)))
	b := slices.Grow(e.b, 4*len(v))
	for _, x := range v {
		b = binary.LittleEndian.AppendUint32(b, uint32(x))
	}
	e.b = b
}

// model encodes topology dims, the stem, and per-stage body/head layer
// trees.
func (e *encoder) model(m *staged.Model) {
	e.u32(uint32(m.In))
	e.u32(uint32(m.Hidden))
	e.u32(uint32(m.Classes))
	e.u32s(m.Widths)
	e.layer(m.Stem)
	e.u32(uint32(len(m.Stages)))
	for _, s := range m.Stages {
		e.layer(s.Body)
		e.layer(s.Head)
	}
}

// layer encodes one nn layer tree node.
func (e *encoder) layer(l nn.Layer) {
	switch l := l.(type) {
	case *nn.Dense:
		tag, floats := byte(tagDense), e.f64s
		if e.dense32 {
			tag, floats = tagDense32, e.f32s
		}
		if l.W.Rows != l.In || l.W.Cols != l.Out {
			if e.err == nil {
				e.err = fmt.Errorf("snapshot: dense %d→%d has %dx%d weights", l.In, l.Out, l.W.Rows, l.W.Cols)
			}
			break
		}
		// The format keeps the weights out×in, a row per output.
		e.wt = tensor.Ensure(e.wt, l.Out, l.In)
		tensor.Transpose(e.wt, l.W)
		e.u8(tag)
		e.u32(uint32(l.In))
		e.u32(uint32(l.Out))
		floats(e.wt.Data)
		floats(l.B)
	case *nn.ReLU:
		e.u8(tagReLU)
	case *nn.Dropout:
		e.u8(tagDropout)
		e.f64(l.Rate)
		e.bool(l.MC)
	case *nn.Residual:
		e.u8(tagResidual)
		e.layer(l.Body)
	case *nn.Sequential:
		e.u8(tagSequential)
		e.u32(uint32(len(l.Layers)))
		for _, c := range l.Layers {
			e.layer(c)
		}
	default:
		if e.err == nil {
			e.err = fmt.Errorf("snapshot: unsupported layer type %T", l)
		}
	}
}

// decoder reads body primitives with error latching and bounds checks.
type decoder struct {
	b   []byte
	off int
	err error
	// dense32 records the artifact kind's precision: f32 kinds must use
	// tagDense32 and f64 kinds tagDense, so a mislabeled file (an
	// "f64" snapshot carrying rounded f32 weights, or vice versa)
	// cannot decode — the kind byte keeps its documented meaning.
	dense32 bool
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("snapshot: "+format, args...)
	}
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.b) {
		d.fail("body truncated (need %d bytes at offset %d of %d)", n, d.off, len(d.b))
		return nil
	}
	s := d.b[d.off : d.off+n]
	d.off += n
	return s
}

func (d *decoder) u8() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) bool() bool { return d.u8() != 0 }

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) f64() float64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// Each slice reader checks the element count against the body once and
// then reads the whole run from one subslice.

func (d *decoder) f64s() []float64 {
	n := int(d.u32())
	if d.err != nil {
		return nil
	}
	if n > maxElems || n*8 > len(d.b)-d.off {
		d.fail("float slice of %d elements exceeds body", n)
		return nil
	}
	src := d.take(8 * n)
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
	return out
}

// f32s reads a float32 slice widened to float64 (lossless; re-encoding
// at f32 reproduces the original bits).
func (d *decoder) f32s() []float64 {
	n := int(d.u32())
	if d.err != nil {
		return nil
	}
	if n > maxElems || n*4 > len(d.b)-d.off {
		d.fail("float32 slice of %d elements exceeds body", n)
		return nil
	}
	src := d.take(4 * n)
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:])))
	}
	return out
}

func (d *decoder) ints() []int {
	n := int(d.u32())
	if d.err != nil {
		return nil
	}
	if n > maxElems || n*8 > len(d.b)-d.off {
		d.fail("int slice of %d elements exceeds body", n)
		return nil
	}
	src := d.take(8 * n)
	out := make([]int, n)
	for i := range out {
		out[i] = int(int64(binary.LittleEndian.Uint64(src[8*i:])))
	}
	return out
}

func (d *decoder) u32s() []int {
	n := int(d.u32())
	if d.err != nil {
		return nil
	}
	if n > maxElems || n*4 > len(d.b)-d.off {
		d.fail("u32 slice of %d elements exceeds body", n)
		return nil
	}
	src := d.take(4 * n)
	out := make([]int, n)
	for i := range out {
		out[i] = int(binary.LittleEndian.Uint32(src[4*i:]))
	}
	return out
}

// finish rejects trailing garbage after a structurally complete decode.
func (d *decoder) finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("snapshot: %d trailing bytes after payload", len(d.b)-d.off)
	}
	return nil
}

// model decodes and structurally validates a staged model.
func (d *decoder) model() (*staged.Model, error) {
	in := int(d.u32())
	hidden := int(d.u32())
	classes := int(d.u32())
	widths := d.u32s()
	stem, err := d.layer(0)
	if err != nil {
		return nil, err
	}
	nStages := int(d.u32())
	if d.err != nil {
		return nil, d.err
	}
	if nStages < 1 || nStages > maxStages {
		return nil, fmt.Errorf("snapshot: %d stages", nStages)
	}
	stages := make([]*staged.Stage, nStages)
	for i := range stages {
		body, err := d.layer(0)
		if err != nil {
			return nil, err
		}
		head, err := d.layer(0)
		if err != nil {
			return nil, err
		}
		stages[i] = &staged.Stage{Body: body, Head: head}
	}
	if d.err != nil {
		return nil, d.err
	}
	m, err := staged.FromParts(stem, stages, in, hidden, classes, widths)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	return m, nil
}

// layer decodes one layer tree node, enforcing the recursion and fanout
// bounds.
func (d *decoder) layer(depth int) (nn.Layer, error) {
	if depth > maxDepth {
		return nil, fmt.Errorf("snapshot: layer tree deeper than %d", maxDepth)
	}
	tag := d.u8()
	if d.err != nil {
		return nil, d.err
	}
	switch tag {
	case tagDense, tagDense32:
		if (tag == tagDense32) != d.dense32 {
			return nil, fmt.Errorf("snapshot: dense tag %d does not match artifact kind precision", tag)
		}
		in := int(d.u32())
		out := int(d.u32())
		floats := d.f64s
		if tag == tagDense32 {
			floats = d.f32s
		}
		w, b := floats(), floats()
		if d.err != nil {
			return nil, d.err
		}
		if in < 1 || out < 1 || in*out > maxElems {
			return nil, fmt.Errorf("snapshot: dense %d→%d out of range", in, out)
		}
		if len(w) != in*out || len(b) != out {
			return nil, fmt.Errorf("snapshot: dense %d→%d with %d weights, %d biases", in, out, len(w), len(b))
		}
		// The file's out×in weights, in the in×out layout nn.Dense keeps.
		wt := tensor.NewMatrix(in, out)
		tensor.Transpose(wt, tensor.FromSlice(out, in, w))
		return &nn.Dense{In: in, Out: out, W: wt, B: b}, nil
	case tagReLU:
		return nn.NewReLU(), nil
	case tagDropout:
		rate := d.f64()
		mc := d.bool()
		if d.err != nil {
			return nil, d.err
		}
		if math.IsNaN(rate) || rate < 0 || rate >= 1 {
			return nil, fmt.Errorf("snapshot: dropout rate %v outside [0,1)", rate)
		}
		drop := nn.NewDropout(rand.New(rand.NewSource(dropoutSeed)), rate)
		drop.MC = mc
		return drop, nil
	case tagResidual:
		body, err := d.layer(depth + 1)
		if err != nil {
			return nil, err
		}
		return nn.NewResidual(body), nil
	case tagSequential:
		n := int(d.u32())
		if d.err != nil {
			return nil, d.err
		}
		if n > maxLayers {
			return nil, fmt.Errorf("snapshot: sequential of %d layers", n)
		}
		layers := make([]nn.Layer, n)
		for i := range layers {
			c, err := d.layer(depth + 1)
			if err != nil {
				return nil, err
			}
			layers[i] = c
		}
		return nn.NewSequential(layers...), nil
	default:
		return nil, fmt.Errorf("snapshot: unknown layer tag %d", tag)
	}
}
