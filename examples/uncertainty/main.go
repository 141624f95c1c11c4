// Uncertainty: demonstrates Eugene's result-quality estimation (paper
// Sec. II-D): train an overconfident model, measure its miscalibration
// with reliability diagrams and ECE, repair it with entropy calibration,
// and use the calibrated confidence for early exit — skipping deep
// stages once results are trustworthy.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"eugene/internal/calib"
	"eugene/internal/dataset"
	"eugene/internal/staged"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	cfg := dataset.SynthConfig{
		Classes: 6, Dim: 32, ModesPerClass: 3,
		TrainSize: 1500, TestSize: 900,
		NoiseLo: 1.0, NoiseHi: 2.6, Overlap: 0.3,
	}
	train, test, err := dataset.SynthCIFAR(cfg, 3)
	if err != nil {
		return err
	}
	calibSet, holdout := test.Split(450)

	mcfg := staged.DefaultConfig(cfg.Dim, cfg.Classes)
	mcfg.Hidden = 48
	model, err := staged.New(rand.New(rand.NewSource(1)), mcfg)
	if err != nil {
		return err
	}
	tcfg := staged.DefaultTrainConfig()
	tcfg.Epochs = 35 // overfit on purpose: overconfidence follows
	fmt.Println("training (deliberately overfitting) ...")
	if _, err := model.Train(tcfg, train); err != nil {
		return err
	}

	show := func(label string, m *staged.Model) float64 {
		ev := calib.EvalUncalibrated(m, holdout)
		last := m.NumStages() - 1
		e, err := calib.ECE(ev.Confs[last], ev.Correct[last], 10)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s: acc=%.3f meanConf=%.3f ECE=%.3f (%s)\n", label,
			calib.MeanAccuracy(ev.Correct[last]), calib.MeanConfidence(ev.Confs[last]), e,
			calib.Diagnose(ev.Confs[last], ev.Correct[last], 0.01))
		bins, _ := calib.Reliability(ev.Confs[last], ev.Correct[last], 10)
		fmt.Println("reliability diagram (conf bin → accuracy, n):")
		for _, b := range bins {
			if b.Count == 0 {
				continue
			}
			bar := ""
			for i := 0; i < int(b.Acc*30); i++ {
				bar += "#"
			}
			fmt.Printf("  (%.1f,%.1f] %-30s %.2f n=%d\n", b.Lo, b.Hi, bar, b.Acc, b.Count)
		}
		return e
	}
	before := show("UNCALIBRATED", model)

	calCfg := calib.DefaultEntropyCalibConfig()
	calibrated, alpha, err := calib.EntropyCalibrate(model, calibSet, calCfg)
	if err != nil {
		return err
	}
	fmt.Printf("\nentropy calibration (Eq. 4) chose alpha = %.2f\n", alpha)
	after := show("CALIBRATED (RTDeepIoT)", calibrated)
	fmt.Printf("\nECE %.3f → %.3f\n", before, after)

	// Early exit: stop at the first stage whose calibrated confidence
	// clears a threshold (paper Sec. II-D's staged-confidence idea).
	fmt.Println("\nearly exit with calibrated confidence:")
	for _, tau := range []float64{0.6, 0.8, 0.95} {
		var right, stages int
		for i := 0; i < holdout.Len(); i++ {
			x, y := holdout.Sample(i)
			var out staged.StageOutput
			for _, out = range calibrated.Predict(x, calibrated.NumStages()-1) {
				if out.Conf >= tau {
					break
				}
			}
			stages += out.Stage + 1
			if out.Pred == y {
				right++
			}
		}
		fmt.Printf("  τ=%.2f: accuracy %.3f, mean stages %.2f of %d\n",
			tau, float64(right)/float64(holdout.Len()),
			float64(stages)/float64(holdout.Len()), calibrated.NumStages())
	}
	return nil
}
