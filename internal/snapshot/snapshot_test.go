package snapshot

import (
	"bytes"
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"eugene/internal/cache"
	"eugene/internal/dataset"
	"eugene/internal/gp"
	"eugene/internal/nn"
	"eugene/internal/sched"
	"eugene/internal/staged"
	"eugene/internal/tensor"
)

// -update regenerates testdata/golden_v1.snap. Generation is fully
// deterministic (seeded rng, no training), so the fixture is
// reproducible on any platform.
var update = flag.Bool("update", false, "rewrite golden snapshot fixtures")

// goldenSnapshot builds the fixture bundle: a small staged model with a
// width ladder, head bottlenecks, and dropout (so every layer tag is
// exercised), plus a hand-made predictor. Everything is seeded; nothing
// depends on training or platform-specific float paths beyond IEEE-754
// arithmetic in NormFloat64, which Go defines exactly.
func goldenSnapshot(t testing.TB) *ModelSnapshot {
	t.Helper()
	cfg := staged.Config{
		In: 6, Hidden: 8, Classes: 3,
		StageCount: 3, BlocksPerStage: 1,
		StageWidths:     []int{4, 6, 8},
		HeadBottlenecks: []int{2, 3, 0},
		HeadDropout:     0.1,
	}
	m, err := staged.New(rand.New(rand.NewSource(42)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	priors := []float64{0.55, 0.7, 0.85}
	profiles := make([][]*gp.PiecewiseLinear, 3)
	for from := range profiles {
		profiles[from] = make([]*gp.PiecewiseLinear, 3)
		for to := from + 1; to < 3; to++ {
			pwl := &gp.PiecewiseLinear{}
			for i := 0; i <= 4; i++ {
				x := float64(i) / 4
				pwl.Knots = append(pwl.Knots, x)
				pwl.Vals = append(pwl.Vals, math.Min(1, x+0.1*float64(to-from)))
			}
			profiles[from][to] = pwl
		}
	}
	pred, err := sched.RestoreGPPredictor(priors, profiles)
	if err != nil {
		t.Fatal(err)
	}
	return &ModelSnapshot{
		Model:     m,
		Alpha:     0.25,
		StageAccs: []float64{0.61, 0.72, 0.83},
		Pred:      pred,
	}
}

// predictAll runs every stage on x and returns the flat bit patterns of
// all stage probabilities — the strictest round-trip equality check.
func predictAll(m *staged.Model, x []float64) []uint64 {
	outs := m.Predict(x, m.NumStages()-1)
	var bits []uint64
	for _, o := range outs {
		bits = append(bits, uint64(o.Pred))
		bits = append(bits, math.Float64bits(o.Conf))
		for _, p := range o.Probs {
			bits = append(bits, math.Float64bits(p))
		}
	}
	return bits
}

func sampleInputs(dim, n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, dim)
		for j := range out[i] {
			out[i][j] = rng.NormFloat64()
		}
	}
	return out
}

// smallModel returns an untrained three-stage model on 8 features and
// the set to train it on.
func smallModel(t *testing.T) (*staged.Model, *dataset.Set) {
	t.Helper()
	cfg := dataset.SynthConfig{
		Classes: 3, Dim: 8, ModesPerClass: 1,
		TrainSize: 120, TestSize: 40,
		NoiseLo: 0.4, NoiseHi: 1.0, Overlap: 0.1,
	}
	train, _, err := dataset.SynthCIFAR(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	mcfg := staged.DefaultConfig(8, 3)
	mcfg.Hidden = 12
	mcfg.BlocksPerStage = 1
	m, err := staged.New(rand.New(rand.NewSource(7)), mcfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, train
}

func TestModelRoundTripBitwise(t *testing.T) {
	// Property: train → snapshot → restore must give bitwise-identical
	// inference, single-sample and batched, plus identical metadata.
	m, train := smallModel(t)
	tcfg := staged.DefaultTrainConfig()
	tcfg.Epochs = 3
	if _, err := m.Train(tcfg, train); err != nil {
		t.Fatal(err)
	}
	curves, _ := m.Clone().ConfidenceCurves(train)
	gcfg := sched.DefaultGPPredictorConfig()
	gcfg.MaxPoints = 60
	pred, err := sched.NewGPPredictor(curves, gcfg)
	if err != nil {
		t.Fatal(err)
	}
	orig := &ModelSnapshot{Model: m, Alpha: 0.5, StageAccs: m.EvalAllStages(train), Pred: pred}

	var buf bytes.Buffer
	if err := EncodeModel(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeModel(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	if got.Alpha != orig.Alpha {
		t.Fatalf("alpha %v != %v", got.Alpha, orig.Alpha)
	}
	if len(got.StageAccs) != len(orig.StageAccs) {
		t.Fatalf("stage accs %v != %v", got.StageAccs, orig.StageAccs)
	}
	for i := range got.StageAccs {
		if math.Float64bits(got.StageAccs[i]) != math.Float64bits(orig.StageAccs[i]) {
			t.Fatalf("stage acc %d: %v != %v", i, got.StageAccs[i], orig.StageAccs[i])
		}
	}

	// Single-sample inference is bitwise identical at every stage.
	for i, x := range sampleInputs(8, 20, 11) {
		a := predictAll(orig.Model, x)
		b := predictAll(got.Model, x)
		if len(a) != len(b) {
			t.Fatalf("input %d: output shape changed", i)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("input %d: bitwise mismatch at %d", i, j)
			}
		}
	}

	// Batched stage execution is bitwise identical too (the serving
	// path).
	inputs := sampleInputs(8, 6, 13)
	hidA := append([][]float64(nil), inputs...)
	hidB := make([][]float64, len(inputs))
	for i, x := range inputs {
		hidB[i] = append([]float64(nil), x...)
	}
	ma, mb := orig.Model.Clone(), got.Model.Clone()
	for s := 0; s < ma.NumStages(); s++ {
		var outA, outB []staged.StageOutput
		nextA, outA := ma.ExecStageBatch(hidA, s, nil)
		nextB, outB := mb.ExecStageBatch(hidB, s, nil)
		for i := range outA {
			if outA[i].Pred != outB[i].Pred ||
				math.Float64bits(outA[i].Conf) != math.Float64bits(outB[i].Conf) {
				t.Fatalf("stage %d task %d: batch outputs diverge", s, i)
			}
		}
		hidA = make([][]float64, len(nextA))
		hidB = make([][]float64, len(nextB))
		for i := range nextA {
			hidA[i] = append([]float64(nil), nextA[i]...)
			hidB[i] = append([]float64(nil), nextB[i]...)
		}
	}

	// Predictor: priors and every profile knot/value bitwise equal, and
	// predictions agree.
	pa, pb := orig.Pred.StagePriors(), got.Pred.StagePriors()
	if len(pa) != len(pb) {
		t.Fatalf("prior count %d != %d", len(pb), len(pa))
	}
	for i := range pa {
		if math.Float64bits(pa[i]) != math.Float64bits(pb[i]) {
			t.Fatalf("prior %d: %v != %v", i, pb[i], pa[i])
		}
	}
	fa, fb := orig.Pred.Profiles(), got.Pred.Profiles()
	for from := range fa {
		for to := range fa[from] {
			a, b := fa[from][to], fb[from][to]
			if (a == nil) != (b == nil) {
				t.Fatalf("profile %d→%d presence mismatch", from, to)
			}
			if a == nil {
				continue
			}
			for i := range a.Knots {
				if math.Float64bits(a.Knots[i]) != math.Float64bits(b.Knots[i]) ||
					math.Float64bits(a.Vals[i]) != math.Float64bits(b.Vals[i]) {
					t.Fatalf("profile %d→%d knot %d diverges", from, to, i)
				}
			}
		}
	}
	for _, c := range []float64{0.1, 0.33, 0.5, 0.77, 0.95} {
		if a, b := orig.Pred.Predict(0, 0, c, 2), got.Pred.Predict(0, 0, c, 2); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("predict(%v): %v != %v", c, b, a)
		}
	}
}

// gradientBuffers counts the Dense layers under the model that hold
// gradient accumulators.
func gradientBuffers(m *staged.Model) int {
	var count func(l nn.Layer) int
	count = func(l nn.Layer) int {
		switch l := l.(type) {
		case *nn.Dense:
			if l.GradW != nil || l.GradB != nil {
				return 1
			}
		case *nn.Residual:
			return count(l.Body)
		case *nn.Sequential:
			n := 0
			for _, c := range l.Layers {
				n += count(c)
			}
			return n
		}
		return 0
	}
	n := count(m.Stem)
	for _, s := range m.Stages {
		n += count(s.Body) + count(s.Head)
	}
	return n
}

// TestRestoredModelHoldsNoGradients pins what a replica pays for a model
// it only serves: installed from a snapshot, compiled and run, it holds
// weights and nothing the size of them besides. Gradient buffers appear
// when training touches the model, and training a restored model works.
func TestRestoredModelHoldsNoGradients(t *testing.T) {
	m, train := smallModel(t)
	if n := gradientBuffers(m); n != 0 {
		t.Fatalf("a new model holds %d gradient buffers before training", n)
	}
	tcfg := staged.DefaultTrainConfig()
	tcfg.Epochs = 2
	first, err := m.Train(tcfg, train)
	if err != nil {
		t.Fatal(err)
	}
	if gradientBuffers(m) == 0 {
		t.Fatal("training allocated no gradient buffers")
	}
	var buf bytes.Buffer
	if err := EncodeModel(&buf, &ModelSnapshot{Model: m, Alpha: 0.5, StageAccs: m.EvalAllStages(train), Pred: goldenSnapshot(t).Pred}); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeModel(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	restored := got.Model

	// Serve it: the compiled engine at both precisions, every stage.
	f64, err := staged.Freeze[float64](restored)
	if err != nil {
		t.Fatal(err)
	}
	f32, err := staged.Freeze32(restored)
	if err != nil {
		t.Fatal(err)
	}
	hid, hid32 := sampleInputs(8, 5, 3), sampleInputs(8, 5, 3)
	pool, pool32 := f64.Clone(), f32.Clone()
	for s := 0; s < restored.NumStages(); s++ {
		hid, _ = pool.ExecStageBatch(hid, s, nil)
		hid32, _ = pool32.ExecStageBatch(hid32, s, nil)
	}
	restored.Predict(sampleInputs(8, 1, 4)[0], restored.NumStages()-1)
	if n := gradientBuffers(restored); n != 0 {
		t.Fatalf("a restored model holds %d gradient buffers after being compiled and served", n)
	}

	// Train it further.
	second, err := restored.Train(tcfg, train)
	if err != nil {
		t.Fatal(err)
	}
	if gradientBuffers(restored) == 0 {
		t.Fatal("training the restored model allocated no gradient buffers")
	}
	if math.IsNaN(second) || second >= first {
		t.Fatalf("loss after two more epochs on the restored model %v, after the first two %v", second, first)
	}
}

func TestSubsetRoundTrip(t *testing.T) {
	cfg := dataset.SynthConfig{
		Classes: 5, Dim: 10, ModesPerClass: 1,
		TrainSize: 150, TestSize: 50,
		NoiseLo: 0.4, NoiseHi: 1.0, Overlap: 0.1,
	}
	train, test, err := dataset.SynthCIFAR(cfg, 17)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := cache.TrainSubset(train, []int{1, 3}, 8, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeSubset(&buf, sub); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSubset(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.InputWidth() != sub.InputWidth() || len(got.Hot) != len(sub.Hot) {
		t.Fatalf("shape changed: in=%d hot=%v", got.InputWidth(), got.Hot)
	}
	if got.Params() != sub.Params() {
		t.Fatalf("params %d != %d", got.Params(), sub.Params())
	}
	for i := 0; i < test.Len(); i++ {
		x, _ := test.Sample(i)
		c1, conf1, o1 := sub.Predict(x)
		c2, conf2, o2 := got.Predict(x)
		if c1 != c2 || o1 != o2 || math.Float64bits(conf1) != math.Float64bits(conf2) {
			t.Fatalf("sample %d: (%d,%v,%v) != (%d,%v,%v)", i, c1, conf1, o1, c2, conf2, o2)
		}
	}
}

func TestSaveLoadAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.snap")
	s := goldenSnapshot(t)
	if err := SaveModel(path, s); err != nil {
		t.Fatal(err)
	}
	// No temp litter after a successful save.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "m.snap" {
		t.Fatalf("directory contents: %v", entries)
	}
	got, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	x := sampleInputs(6, 1, 5)[0]
	a, b := predictAll(s.Model, x), predictAll(got.Model, x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("restored model diverges at %d", i)
		}
	}
	// Overwriting an existing snapshot also succeeds (rename over).
	if err := SaveModel(path, s); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeModel(&buf, goldenSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{0, 4, len(magic), len(magic) + 13, len(raw) / 2, len(raw) - 1} {
			if _, err := DecodeModel(bytes.NewReader(raw[:n])); err == nil {
				t.Fatalf("truncation to %d bytes accepted", n)
			}
		}
	})
	t.Run("bitflip", func(t *testing.T) {
		// Flip one byte in each region: header, early body (topology),
		// late body (weights), checksum.
		for _, off := range []int{9, len(magic) + 14, len(raw) / 2, len(raw) - 2} {
			mut := append([]byte(nil), raw...)
			mut[off] ^= 0x40
			if _, err := DecodeModel(bytes.NewReader(mut)); err == nil {
				t.Fatalf("bit flip at %d accepted", off)
			}
		}
	})
	t.Run("badmagic", func(t *testing.T) {
		mut := append([]byte(nil), raw...)
		mut[0] = 'X'
		if _, err := DecodeModel(bytes.NewReader(mut)); err == nil {
			t.Fatal("bad magic accepted")
		}
	})
	t.Run("futureversion", func(t *testing.T) {
		mut := append([]byte(nil), raw...)
		mut[len(magic)] = FormatVersion + 1
		if _, err := DecodeModel(bytes.NewReader(mut)); err == nil {
			t.Fatal("future version accepted")
		}
	})
	t.Run("trailing", func(t *testing.T) {
		mut := append(append([]byte(nil), raw...), 0xAB)
		if _, err := DecodeModel(bytes.NewReader(mut)); err == nil {
			t.Fatal("trailing garbage accepted")
		}
	})
	t.Run("kindmismatch", func(t *testing.T) {
		if _, err := DecodeSubset(bytes.NewReader(raw)); err == nil {
			t.Fatal("model snapshot decoded as subset")
		}
	})
}

// TestGoldenDecodeCompat pins the on-disk format: the committed fixture
// must keep decoding, and re-encoding the decoded bundle must reproduce
// it byte for byte. Any codec change that breaks either fails CI; a
// deliberate format change requires a version bump, decode support for
// the old version, and a new fixture (testdata/golden_v<N>.snap).
func TestGoldenDecodeCompat(t *testing.T) {
	path := filepath.Join("testdata", "golden_v1.snap")
	want := goldenSnapshot(t)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := SaveModel(path, want); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden fixture (regenerate with -update): %v", err)
	}
	got, err := DecodeModel(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("golden fixture no longer decodes — breaking format change: %v", err)
	}
	// Decoded metadata matches the generator exactly.
	if got.Alpha != want.Alpha {
		t.Fatalf("alpha = %v, want %v", got.Alpha, want.Alpha)
	}
	if got.Model.In != 6 || got.Model.Classes != 3 || got.Model.NumStages() != 3 {
		t.Fatalf("topology changed: in=%d classes=%d stages=%d", got.Model.In, got.Model.Classes, got.Model.NumStages())
	}
	if got.Pred == nil || got.Pred.NumStages() != 3 {
		t.Fatal("predictor missing from golden decode")
	}
	// Weights are bitwise what the seeded generator produces.
	x := sampleInputs(6, 3, 99)
	for i, in := range x {
		a, b := predictAll(want.Model, in), predictAll(got.Model, in)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("golden inference diverges (input %d, element %d)", i, j)
			}
		}
	}
	// Re-encode reproduces the file exactly: the encoder still writes
	// format v1.
	var buf bytes.Buffer
	if err := EncodeModel(&buf, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), raw) {
		t.Fatalf("re-encoded fixture differs from committed bytes (%d vs %d) — codec drifted; bump FormatVersion", buf.Len(), len(raw))
	}
}

func TestDecodeRejectsStructuralLies(t *testing.T) {
	// A CRC-valid file whose payload claims impossible shapes must be
	// rejected by validation, not crash a worker later. Craft one by
	// encoding a valid bundle, then re-framing a mutated body.
	s := goldenSnapshot(t)
	var buf bytes.Buffer
	if err := EncodeModel(&buf, s); err != nil {
		t.Fatal(err)
	}
	_, body, err := deframe(buf.Bytes(), kindModel)
	if err != nil {
		t.Fatal(err)
	}
	// Claim classes=7 while every head still outputs 3: FromParts must
	// refuse. classes is the third u32 of the body.
	mut := append([]byte(nil), body...)
	mut[8] = 7
	if _, err := DecodeModel(bytes.NewReader(frameBody(kindModel, mut))); err == nil {
		t.Fatal("inconsistent class count accepted")
	}
}

// frameBody frames body as a file of the given kind.
func frameBody(kind byte, body []byte) []byte {
	e := newEncoder(false, 0)
	e.b = append(e.b, body...)
	return e.frame(kind)
}

func TestEnsureTensorFromSliceAliasSafe(t *testing.T) {
	// Decoded Dense weights share the decoded slice; make sure writes
	// through the matrix view are visible (sanity on FromSlice
	// semantics the decoder relies on).
	data := []float64{1, 2, 3, 4}
	m := tensor.FromSlice(2, 2, data)
	m.Set(0, 0, 9)
	if data[0] != 9 {
		t.Fatal("FromSlice no longer aliases its input")
	}
}
