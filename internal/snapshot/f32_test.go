package snapshot

import (
	"bytes"
	"math"
	"testing"

	"eugene/internal/cache"
	"eugene/internal/dataset"
)

// TestModelF32RoundTrip: an f32-encoded bundle must decode (widened),
// re-encode at f32 byte-identically, weigh roughly half its f64 twin,
// and carry weights equal to float32(original).
func TestModelF32RoundTrip(t *testing.T) {
	s := goldenSnapshot(t)
	var f64Buf, f32Buf bytes.Buffer
	if err := EncodeModel(&f64Buf, s); err != nil {
		t.Fatal(err)
	}
	if err := EncodeModelF32(&f32Buf, s); err != nil {
		t.Fatal(err)
	}
	// Dense payloads dominate the file, so f32 must land well under
	// three quarters of the f64 size (exactly half for the payloads;
	// framing and predictor stay fixed cost).
	if f32Buf.Len() >= f64Buf.Len()*3/4 {
		t.Fatalf("f32 bundle is %d bytes vs %d f64 — expected ≈half", f32Buf.Len(), f64Buf.Len())
	}

	got, err := DecodeModel(bytes.NewReader(f32Buf.Bytes()))
	if err != nil {
		t.Fatalf("decoding f32 bundle: %v", err)
	}
	if got.Alpha != s.Alpha {
		t.Fatalf("alpha %v, want %v (calibration stays f64)", got.Alpha, s.Alpha)
	}
	if got.Pred == nil || got.Pred.NumStages() != s.Pred.NumStages() {
		t.Fatal("predictor lost in f32 round trip")
	}
	wantParams := s.Model.Params()
	gotParams := got.Model.Params()
	if len(wantParams) != len(gotParams) {
		t.Fatalf("%d params, want %d", len(gotParams), len(wantParams))
	}
	for i := range wantParams {
		for j := range wantParams[i].Value {
			want := float64(float32(wantParams[i].Value[j]))
			if gotParams[i].Value[j] != want {
				t.Fatalf("param %d[%d] = %v, want float32-rounded %v", i, j, gotParams[i].Value[j], want)
			}
		}
	}

	// Re-encoding the widened model at f32 must reproduce the file.
	var again bytes.Buffer
	if err := EncodeModelF32(&again, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), f32Buf.Bytes()) {
		t.Fatal("f32 re-encode is not byte-identical")
	}
}

// TestKindTagBindingRejected: the artifact kind byte's documented
// meaning (f64 vs f32 payloads) is enforced — a CRC-valid file framed
// as one kind but carrying the other kind's dense tags must not decode.
func TestKindTagBindingRejected(t *testing.T) {
	s := goldenSnapshot(t)
	var f32Buf, f64Buf bytes.Buffer
	if err := EncodeModelF32(&f32Buf, s); err != nil {
		t.Fatal(err)
	}
	if err := EncodeModel(&f64Buf, s); err != nil {
		t.Fatal(err)
	}
	_, body32, err := deframe(f32Buf.Bytes(), kindModelF32)
	if err != nil {
		t.Fatal(err)
	}
	_, body64, err := deframe(f64Buf.Bytes(), kindModel)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalModel(frameBody(kindModel, body32)); err == nil {
		t.Fatal("kindModel frame with tagDense32 payloads accepted")
	}
	if _, err := UnmarshalModel(frameBody(kindModelF32, body64)); err == nil {
		t.Fatal("kindModelF32 frame with tagDense payloads accepted")
	}
}

func TestSubsetF32RoundTrip(t *testing.T) {
	cfg := dataset.SynthConfig{
		Classes: 5, Dim: 10, ModesPerClass: 1,
		TrainSize: 150, TestSize: 50,
		NoiseLo: 0.4, NoiseHi: 1.0, Overlap: 0.1,
	}
	train, _, err := dataset.SynthCIFAR(cfg, 17)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := cache.TrainSubset(train, []int{1, 3}, 8, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	var f64Buf, f32Buf bytes.Buffer
	if err := EncodeSubset(&f64Buf, sub); err != nil {
		t.Fatal(err)
	}
	if err := EncodeSubsetF32(&f32Buf, sub); err != nil {
		t.Fatal(err)
	}
	if f32Buf.Len() >= f64Buf.Len()*3/4 {
		t.Fatalf("f32 subset is %d bytes vs %d f64 — expected ≈half", f32Buf.Len(), f64Buf.Len())
	}
	got, err := DecodeSubset(bytes.NewReader(f32Buf.Bytes()))
	if err != nil {
		t.Fatalf("decoding f32 subset: %v", err)
	}
	if len(got.Hot) != len(sub.Hot) {
		t.Fatalf("%d hot classes, want %d", len(got.Hot), len(sub.Hot))
	}
	// Same class decisions on the original inputs, confidences within
	// f32 tolerance.
	for _, x := range sampleInputs(sub.InputWidth(), 20, 99) {
		wc, wconf, wother := sub.Predict(x)
		gc, gconf, gother := got.Predict(x)
		if wc != gc || wother != gother {
			t.Fatalf("f32 subset predicts (%d,%v), want (%d,%v)", gc, gother, wc, wother)
		}
		if d := math.Abs(wconf - gconf); d > 1e-4 {
			t.Fatalf("subset conf %v, want ≈ %v (Δ %v)", gconf, wconf, d)
		}
	}
}
