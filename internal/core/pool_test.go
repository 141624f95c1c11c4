package core

import (
	"context"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"eugene/internal/nn"
	"eugene/internal/staged"
	"eugene/internal/tensor"
)

// TestUnfreezableModelStartsNoPool pins the one behaviour for a model
// the inference compiler rejects (here one with Monte-Carlo dropout
// heads): at either precision the first Infer returns the freeze error,
// naming the model, and no pool is started. The model still answers
// through the layer tree (Predict).
func TestUnfreezableModelStartsNoPool(t *testing.T) {
	mc, err := staged.New(rand.New(rand.NewSource(1)), staged.Config{In: 6, Hidden: 8, Classes: 3, StageCount: 2, BlocksPerStage: 1, HeadDropout: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range mc.Stages {
		nn.SetMCDropout(s.Head, true)
	}
	for _, precision := range []string{PrecisionF64, PrecisionF32} {
		for _, admission := range []bool{false, true} {
			svc, err := NewService(Config{Workers: 2, Deadline: time.Second, QueueDepth: 8, Lookahead: 1, Precision: precision, Admission: admission})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := svc.Register("mc", mc); err != nil {
				t.Fatal(err)
			}
			_, err = svc.Infer(context.Background(), "mc", make([]float64, mc.In))
			if err == nil || !strings.Contains(err.Error(), `freezing "mc"`) {
				t.Errorf("%s admission=%v: Infer error = %v, want the freeze error naming the model", precision, admission, err)
			}
			if n := len(svc.Stats()); n != 0 {
				t.Errorf("%s admission=%v: %d pools started for a model that cannot freeze", precision, admission, n)
			}
			svc.Close()
		}
	}
	if outs := mc.Predict(make([]float64, mc.In), mc.NumStages()-1); len(outs) != mc.NumStages() {
		t.Fatalf("MC dropout Predict returned %d outputs", len(outs))
	}
}

// TestPoolHoldsOneWeightSet: a pool's workers run clones of one freeze,
// so four float64 workers read the same weight arrays — the published
// model's own — and four float32 workers share one packed copy. The
// admission tier is built the same way.
func TestPoolHoldsOneWeightSet(t *testing.T) {
	model, _ := trainPrecisionModel(t)
	own := map[*float64]bool{}
	for _, p := range model.Params() {
		own[&p.Value[0]] = true
	}
	for _, precision := range []string{PrecisionF64, PrecisionF32} {
		svc, err := NewService(Config{Workers: 4, Deadline: time.Second, QueueDepth: 8, Lookahead: 1, Precision: precision, Admission: true})
		if err != nil {
			t.Fatal(err)
		}
		execs, err := svc.newExecs("demo", model, new(atomic.Int32))
		svc.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(execs) != 4 {
			t.Fatalf("%s: %d executors for 4 workers", precision, len(execs))
		}
		first := execs[0].(*execAdapter)
		for i, e := range execs {
			ad := e.(*execAdapter)
			if ad.m == first.m && i > 0 {
				t.Fatalf("%s: workers 0 and %d share one frozen model (and its scratch)", precision, i)
			}
			switch m := ad.m.(type) {
			case *staged.Frozen[float64]:
				if precision != PrecisionF64 {
					t.Fatalf("%s pool runs a float64 engine", precision)
				}
				for k, w := range m.Weights() {
					if !own[&w.Data[0]] {
						t.Fatalf("worker %d weight %d is a copy, not the model's own array", i, k)
					}
				}
				assertSameWeights(t, ad.alt.(*staged.Frozen[float32]), first.alt.(*staged.Frozen[float32]))
			case *staged.Frozen[float32]:
				if precision != PrecisionF32 || ad.alt != nil {
					t.Fatalf("%s pool: float32 engine with tier %v", precision, ad.alt)
				}
				assertSameWeights(t, m, first.m.(*staged.Frozen[float32]))
			default:
				t.Fatalf("%s: worker %d runs %T", precision, i, ad.m)
			}
		}
	}
}

func assertSameWeights[T tensor.Float](t *testing.T, a, b *staged.Frozen[T]) {
	t.Helper()
	aw, bw := a.Weights(), b.Weights()
	if len(aw) == 0 || len(aw) != len(bw) {
		t.Fatalf("%d weight matrices against %d", len(aw), len(bw))
	}
	for k := range aw {
		if &aw[k].Data[0] != &bw[k].Data[0] {
			t.Fatalf("weight %d: workers hold separate copies", k)
		}
	}
}
