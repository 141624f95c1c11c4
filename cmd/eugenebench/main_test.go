package main

import (
	"context"
	"errors"
	"io"
	"regexp"
	"testing"
	"time"
)

// TestSmoke runs every workload once untraced and once traced, on
// windows far too small to measure anything, and checks the contract
// between the command and BENCHMARK.json: every end-to-end and
// per-layer name of the file is emitted exactly once per workload, with
// the file's unit, and nothing else is.
func TestSmoke(t *testing.T) {
	b, err := readBenchFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	wantE2E := make(map[string]string)
	for _, m := range b.EndToEnd {
		wantE2E[m.Name] = m.Unit
	}
	wantLayer := make(map[string]string)
	for _, m := range b.PerLayer {
		wantLayer[m.Name] = m.Unit
	}

	c, err := newCorpus()
	if err != nil {
		t.Fatal(err)
	}
	pr, err := provision(c)
	if err != nil {
		t.Fatal(err)
	}
	// One window a third the size (three slices of tracing), no warm-up,
	// the shortest ladder.
	p := plan{measure: time.Millisecond, scale: 0.3, setupReps: 1, ladder: time.Millisecond, outDir: t.TempDir(), reuse: pr}
	for _, bw := range b.Workloads {
		if findWorkload(bw.Name) == nil {
			t.Fatalf("BENCHMARK.json names workload %q, which the command does not have", bw.Name)
		}
	}
	// Every workload of the command, the one BENCHMARK.json does not gate
	// on (open_devices) too.
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := run(context.Background(), io.Discard, w, 1, p, traced)
			// The race detector cannot keep an open loop's schedule: such
			// a run is invalid, as it should be.
			if raceDetector && errors.Is(err, errInvalid) {
				t.Logf("%s traced=%v: %v", w.name, traced, err)
				continue
			} else if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if res.Attempted < 1 || res.Failed != 0 || !res.Correct {
				t.Errorf("%s traced=%v: attempted %d, failed %d, correct %v", w.name, traced, res.Attempted, res.Failed, res.Correct)
			}
			want := wantE2E
			if traced {
				want = wantLayer
			}
			// res.Metrics is a map, so a name cannot appear twice; the
			// counts matching means none is missing and none is extra.
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, BENCHMARK.json lists %d", w.name, traced, len(res.Metrics), len(want))
			}
			for n, m := range res.Metrics {
				if !name.MatchString(n) {
					t.Errorf("%s: metric name %q is not a valid name", w.name, n)
				}
				if unit, ok := want[n]; !ok {
					t.Errorf("%s traced=%v: emits %q, which BENCHMARK.json does not list", w.name, traced, n)
				} else if unit != m.Unit {
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", w.name, n, m.Unit, unit)
				}
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 37, 2, 29, 4, 22, 7, 16, 11})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}

func TestFirstInversion(t *testing.T) {
	names := []string{"staged", "sched", "core"}
	if got := firstInversion(names, []float64{1, 1.2, 0.92}, 0.10); got != "" {
		t.Errorf("8 %% below is inside the tolerance, got %q", got)
	}
	if got := firstInversion(names, []float64{1, 1.2, 0.89}, 0.10); got == "" {
		t.Error("core 11 % below sched went unreported")
	}
}
