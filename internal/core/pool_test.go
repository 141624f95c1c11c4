package core

import (
	"context"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eugene/internal/nn"
	"eugene/internal/sched"
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
// model's own — and four float32 workers share one packed copy. A
// float64 pool's f32 tier holds no weights until a dispatch finds the
// gauge at DegradeTier; from then on its four workers share one float32
// weight set too.
func TestPoolHoldsOneWeightSet(t *testing.T) {
	model, test := trainPrecisionModel(t)
	own := map[*float64]bool{}
	for _, p := range model.Params() {
		own[&p.Value[0]] = true
	}
	x, _ := test.Sample(0)
	for _, precision := range []string{PrecisionF64, PrecisionF32} {
		svc, err := NewService(Config{Workers: 4, Deadline: time.Second, QueueDepth: 8, Lookahead: 1, Precision: precision, Admission: true})
		if err != nil {
			t.Fatal(err)
		}
		gauge := new(atomic.Int32)
		execs, err := svc.newExecs("demo", model, gauge)
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
				if ad.tier != first.tier {
					t.Fatalf("workers 0 and %d hold separate f32 tiers", i)
				}
			case *staged.Frozen[float32]:
				if precision != PrecisionF32 || ad.tier != nil {
					t.Fatalf("%s pool: float32 engine with tier %v", precision, ad.tier)
				}
				assertSameWeights(t, m, first.m.(*staged.Frozen[float32]))
			default:
				t.Fatalf("%s: worker %d runs %T", precision, i, ad.m)
			}
		}
		if precision == PrecisionF32 {
			continue
		}
		dispatchAll := func() {
			for _, e := range execs {
				e.ExecStageBatch([][]float64{x}, 0, nil)
			}
		}
		for _, lvl := range []int32{sched.DegradeNone, sched.DegradeExit} {
			gauge.Store(lvl)
			dispatchAll()
			if first.tier.frozen.Load() != nil || first.tier.started.Load() {
				t.Fatalf("f32 tier frozen at degradation level %d", lvl)
			}
		}
		gauge.Store(sched.DegradeTier)
		dispatchAll()
		if !first.tier.started.Load() {
			t.Fatal("a dispatch at DegradeTier did not start the f32 tier's freeze")
		}
		waitForTier(t, first.tier)
		dispatchAll()
		for i, e := range execs {
			ad := e.(*execAdapter)
			alt, ok := ad.alt.(*staged.Frozen[float32])
			if !ok {
				t.Fatalf("worker %d serves %T at DegradeTier, want the float32 tier", i, ad.alt)
			}
			if alt == first.alt && i > 0 {
				t.Fatalf("workers 0 and %d share one tier clone (and its scratch)", i)
			}
			assertSameWeights(t, alt, first.tier.frozen.Load())
		}
	}
}

// waitForTier starts the tier's freeze if no dispatch has, and waits
// until it is published.
func waitForTier(t *testing.T, tier *f32Tier) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for tier.get() == nil {
		if time.Now().After(deadline) {
			t.Fatal("f32 tier not published 10s after the gauge read DegradeTier")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTierFrozenOnce: four workers that find the gauge at DegradeTier
// together freeze the tier once, serve the float64 model until it is
// published and then the one frozen tier, each through its own clone.
// Under -race this is also the publication's memory-ordering check.
func TestTierFrozenOnce(t *testing.T) {
	model, test := trainPrecisionModel(t)
	svc, err := NewService(Config{Workers: 4, Deadline: time.Second, QueueDepth: 8, Lookahead: 1, Admission: true})
	if err != nil {
		t.Fatal(err)
	}
	gauge := new(atomic.Int32)
	execs, err := svc.newExecs("demo", model, gauge)
	svc.Close()
	if err != nil {
		t.Fatal(err)
	}
	tier := execs[0].(*execAdapter).tier
	var freezes atomic.Int32
	freeze := tier.freeze
	tier.freeze = func() (*staged.Frozen[float32], error) {
		freezes.Add(1)
		return freeze()
	}
	gauge.Store(sched.DegradeTier)
	x, _ := test.Sample(0)
	var wg sync.WaitGroup
	for _, e := range execs {
		wg.Add(1)
		go func(ad *execAdapter) {
			defer wg.Done()
			deadline := time.Now().Add(10 * time.Second)
			for ad.alt == nil && time.Now().Before(deadline) {
				ad.ExecStageBatch([][]float64{x}, 0, nil)
			}
		}(e.(*execAdapter))
	}
	wg.Wait()
	if n := freezes.Load(); n != 1 {
		t.Fatalf("f32 tier frozen %d times, want once", n)
	}
	for i, e := range execs {
		alt, ok := e.(*execAdapter).alt.(*staged.Frozen[float32])
		if !ok {
			t.Fatalf("worker %d never served the tier", i)
		}
		assertSameWeights(t, alt, tier.frozen.Load())
	}
}

// TestTierServesF32Answers: a float64 pool at DegradeTier answers as a
// float32 pool does on the same rows, at TestPrecisionServingAgreement's
// bar. The gauge is held at DegradeTier by the test (admission off, so
// the scheduler never writes it) and the tier is published before the
// rows are served, so every dispatch runs it.
func TestTierServesF32Answers(t *testing.T) {
	model, test := trainPrecisionModel(t)
	inputs := make([][]float64, test.Len())
	for i := range inputs {
		inputs[i], _ = test.Sample(i)
	}
	serve := func(precision string, gauge *atomic.Int32) []sched.Response {
		t.Helper()
		svc, err := NewService(Config{Workers: 2, Deadline: 30 * time.Second, QueueDepth: 256, Lookahead: 1, MaxBatch: 8, Precision: precision})
		if err != nil {
			t.Fatal(err)
		}
		execs, err := svc.newExecs("demo", model, gauge)
		svc.Close()
		if err != nil {
			t.Fatal(err)
		}
		if tier := execs[0].(*execAdapter).tier; tier != nil {
			waitForTier(t, tier)
		}
		live, err := sched.NewLive(sched.LiveConfig{Workers: 2, Deadline: 30 * time.Second, QueueDepth: 256, MaxBatch: 8}, sched.NewFIFO(), execs)
		if err != nil {
			t.Fatal(err)
		}
		defer live.Stop()
		resps, err := live.SubmitBatch(context.Background(), inputs, model.NumStages())
		if err != nil {
			t.Fatalf("%s SubmitBatch: %v", precision, err)
		}
		return resps
	}
	gauge := new(atomic.Int32)
	gauge.Store(sched.DegradeTier)
	tiered := serve(PrecisionF64, gauge)
	f32 := serve(PrecisionF32, nil)
	var disagree int
	for i := range inputs {
		if tiered[i].Stages != model.NumStages() || f32[i].Stages != model.NumStages() {
			t.Fatalf("input %d ran %d/%d stages; deadline too tight for a deterministic comparison", i, tiered[i].Stages, f32[i].Stages)
		}
		if tiered[i].Pred != f32[i].Pred {
			disagree++
		}
	}
	if frac := float64(disagree) / float64(len(inputs)); frac > 0.001 {
		t.Fatalf("the f32 tier disagrees with an f32 pool on %d/%d inputs (%.3f%% > 0.1%%)",
			disagree, len(inputs), 100*frac)
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
