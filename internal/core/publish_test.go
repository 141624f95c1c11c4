package core

import (
	"errors"
	"math/rand"
	"os"
	"sync"
	"testing"

	"eugene/internal/calib"
	"eugene/internal/sched"
	"eugene/internal/snapshot"
	"eugene/internal/staged"
)

// registeredModel is an untrained model of input width in, the kind an
// external trainer hands to Register.
func registeredModel(t *testing.T, in int) *staged.Model {
	t.Helper()
	m, err := staged.New(rand.New(rand.NewSource(2)), staged.Config{In: in, Hidden: 8, Classes: 3, StageCount: 2, BlocksPerStage: 1})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestPublishRegisterDropsTrainingData: the data retained by Train
// describes the trained model, so a Register over the same name must not
// hand it to Reduce for a model of another width.
func TestPublishRegisterDropsTrainingData(t *testing.T) {
	train, _ := smallSet(t, 5)
	svc, err := NewService(persistConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	quickTrain(t, svc, "m", train)
	if _, err := svc.Register("m", registeredModel(t, train.X.Cols+3)); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Reduce("m", nil, []int{0, 1}, 8, 1); !errors.Is(err, ErrNoTrainingData) {
		t.Fatalf("Reduce after Register over a trained name: %v, want ErrNoTrainingData", err)
	}
}

// TestPublishRegisterPersists: with a DataDir, a registered model is the
// one a restart brings back, not the trained model it replaced.
func TestPublishRegisterPersists(t *testing.T) {
	dir := t.TempDir()
	train, _ := smallSet(t, 6)
	svc1, err := NewService(persistConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	quickTrain(t, svc1, "m", train)
	if _, err := svc1.Register("m", registeredModel(t, train.X.Cols+3)); err != nil {
		t.Fatal(err)
	}
	want, err := svc1.SnapshotBytes("m")
	if err != nil {
		t.Fatal(err)
	}
	svc1.Close()

	svc2, err := NewService(persistConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	got, err := svc2.SnapshotBytes("m")
	if err != nil {
		t.Fatal(err)
	}
	if snapshot.VersionOf(got) != snapshot.VersionOf(want) {
		t.Fatalf("restart restored %s, Register published %s", snapshot.VersionOf(got), snapshot.VersionOf(want))
	}
}

// TestPublishAfterClose: no publisher changes the registry, or the disk,
// once Close has run.
func TestPublishAfterClose(t *testing.T) {
	dir := t.TempDir()
	train, test := smallSet(t, 7)
	svc, err := NewService(persistConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	quickTrain(t, svc, "m", train)
	raw, err := svc.SnapshotBytes("m")
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()

	ccfg := calib.DefaultEntropyCalibConfig()
	ccfg.Epochs = 1
	ccfg.Alphas = []float64{0.5}
	gcfg := sched.DefaultGPPredictorConfig()
	gcfg.MaxPoints = 40
	for _, tc := range []struct {
		name    string
		publish func() error
	}{
		{"Train", func() error {
			opts := DefaultTrainOptions(train.X.Cols, 3)
			opts.Model.Hidden, opts.Model.BlocksPerStage, opts.Train.Epochs = 8, 1, 1
			_, err := svc.Train("late", train, opts)
			return err
		}},
		{"Register", func() error {
			_, err := svc.Register("late", registeredModel(t, train.X.Cols))
			return err
		}},
		{"Calibrate", func() error {
			_, err := svc.Calibrate("m", test, ccfg)
			return err
		}},
		{"BuildPredictor", func() error { return svc.BuildPredictor("m", train, gcfg) }},
		{"InstallSnapshotBytes", func() error { return svc.InstallSnapshotBytes("late", raw) }},
	} {
		if err := tc.publish(); !errors.Is(err, ErrClosed) {
			t.Errorf("%s after Close: %v, want ErrClosed", tc.name, err)
		}
	}
	if _, err := os.Stat(svc.snapshotPath("late")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a publish after Close reached the disk: %v", err)
	}
	got, err := os.ReadFile(svc.snapshotPath("m"))
	if err != nil {
		t.Fatal(err)
	}
	if snapshot.VersionOf(got) != snapshot.VersionOf(raw) {
		t.Error("a publish after Close rewrote the disk copy of m")
	}
}

// TestPublishDiskCopyIsLastServed races Train against InstallSnapshotBytes
// on one name: whichever publishes last, the disk copy must be the model
// the registry serves. The window this guards (an entry read before the
// disk write is serialized) lies between two statements, so the race
// rarely lands in it; the test pins the outcome, not the interleaving.
func TestPublishDiskCopyIsLastServed(t *testing.T) {
	dir := t.TempDir()
	train, _ := smallSet(t, 8)
	svc, err := NewService(persistConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, err := svc.Register("other", registeredModel(t, train.X.Cols)); err != nil {
		t.Fatal(err)
	}
	raw, err := svc.SnapshotBytes("other")
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			opts := DefaultTrainOptions(train.X.Cols, 3)
			opts.Model.Hidden, opts.Model.BlocksPerStage, opts.Train.Epochs = 8, 1, 1
			if _, err := svc.Train("m", train, opts); err != nil {
				t.Error(err)
			}
		}()
		go func() {
			defer wg.Done()
			if err := svc.InstallSnapshotBytes("m", raw); err != nil {
				t.Error(err)
			}
		}()
		wg.Wait()
		served, err := svc.SnapshotBytes("m")
		if err != nil {
			t.Fatal(err)
		}
		disk, err := os.ReadFile(svc.snapshotPath("m"))
		if err != nil {
			t.Fatal(err)
		}
		if snapshot.VersionOf(disk) != snapshot.VersionOf(served) {
			t.Fatalf("round %d: disk holds %s, registry serves %s", round, snapshot.VersionOf(disk), snapshot.VersionOf(served))
		}
	}
}
