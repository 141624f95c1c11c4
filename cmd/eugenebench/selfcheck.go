package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// benchFile is BENCHMARK.json, as far as selfcheck reads it.
type benchFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchFile(path string) (*benchFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchFile
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// quartiles returns what Python's statistics.quantiles(v, n=4) does
// (the exclusive method), because that is what accepts the benchmark.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// runOnce runs one workload in a fresh process, as the driver does, and
// parses the last line of its output.
func runOnce(exe, workload string, seed int64, seconds int) (*result, error) {
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w: %s", workload, seed, err, strings.TrimSpace(stderr.String()))
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	return &res, nil
}

// selfcheck runs `sets` sets of runsPerSet runs per workload the way the
// acceptance check does — another seed each run — and holds every
// end-to-end metric × workload pair to the bounds in BENCHMARK.json: the
// quartile spread of each set (except setup_s) and the disagreement
// between the medians of any two sets must both stay inside the bound.
// It rewrites the noise record, the evidence for those bounds.
func selfcheck(sets int, seed int64) error {
	const runs = runsPerSet
	b, err := readBenchFile(benchPath)
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	// Every workload of the command is recorded; the bounds gate the ones
	// BENCHMARK.json lists.
	gated := make(map[string]bool)
	for _, w := range b.Workloads {
		gated[w.Name] = true
	}
	// values[workload][metric][set] are the runs' values.
	values := make(map[string]map[string][][]float64)
	for _, w := range workloads {
		values[w.name] = make(map[string][][]float64)
		for _, m := range b.EndToEnd {
			values[w.name][m.Name] = make([][]float64, sets)
		}
	}
	started := time.Now()
	var failures []string
	for set := 0; set < sets; set++ {
		// Workloads take turns, so an hour's drift of the host lands in
		// every workload's spread instead of between workloads.
		for i := 0; i < runs; i++ {
			for _, w := range workloads {
				s := seed + int64(set*runs+i)
				res, err := runOnce(exe, w.name, s, b.RunSeconds)
				if err != nil {
					failures = append(failures, err.Error())
					fmt.Println("FAILED", err)
					continue
				}
				fmt.Printf("set %d run %d %-17s seed %d", set+1, i+1, w.name, s)
				for _, m := range b.EndToEnd {
					v := res.Metrics[m.Name].Value
					values[w.name][m.Name][set] = append(values[w.name][m.Name][set], v)
					fmt.Printf(" %s=%.4g", m.Name, v)
				}
				fmt.Println()
			}
		}
	}

	var md strings.Builder
	fmt.Fprintf(&md, "# Noise record\n\n")
	fmt.Fprintf(&md, "Written by `eugenebench -selfcheck %d` on %s (%d CPUs, %s, %s), %d s per run, seeds from %d, %.0f min in all. ",
		sets, started.UTC().Format("2006-01-02 15:04 MST"), runtime.NumCPU(), runtime.Version(), runtime.GOARCH,
		b.RunSeconds, seed, time.Since(started).Minutes())
	fmt.Fprintf(&md, "Each set is %d runs per workload, each with another seed, the workloads taking turns. ", runs)
	fmt.Fprintf(&md, "A cell is a set's median with its first and third quartile (Python's `statistics.quantiles(v, n=4)`); ")
	fmt.Fprintf(&md, "spread is (Q3 − Q1) ÷ median, the widest over the sets; gap is the widest disagreement between two sets' medians, as a share of the earlier one. ")
	fmt.Fprintf(&md, "Both are held to the metric's bound in `BENCHMARK.json` (setup_s: the gap only) on the workloads it lists; a workload it does not list is recorded and gates nothing. ")
	fmt.Fprintf(&md, "The timing metrics are scaled to the reference host's speed by the probe (bench/README.md).\n")
	breaches := len(failures)
	for _, w := range workloads {
		title := w.name
		if !gated[w.name] {
			title += " (not gated)"
		}
		fmt.Fprintf(&md, "\n## %s\n\n| metric | unit | bound |", title)
		for set := 0; set < sets; set++ {
			fmt.Fprintf(&md, " set %d |", set+1)
		}
		fmt.Fprintf(&md, " spread | ÷ bound | gap | ÷ bound |\n|---|---|---|")
		fmt.Fprint(&md, strings.Repeat("---|", sets+4), "\n")
		for _, m := range b.EndToEnd {
			fmt.Fprintf(&md, "| %s | %s | %.3g |", m.Name, m.Unit, m.Bound)
			var medians []float64
			var spread float64
			for set := 0; set < sets; set++ {
				v := values[w.name][m.Name][set]
				if len(v) == 0 {
					fmt.Fprint(&md, " no run |")
					continue
				}
				q1, q2, q3 := quartiles(v)
				medians = append(medians, q2)
				if q2 != 0 {
					spread = max(spread, (q3-q1)/q2)
				}
				fmt.Fprintf(&md, " %.5g (%.5g–%.5g) |", q2, q1, q3)
			}
			var gap float64
			for a := range medians {
				for c := a + 1; c < len(medians); c++ {
					if medians[a] != 0 {
						gap = max(gap, math.Abs(medians[c]-medians[a])/medians[a])
					}
				}
			}
			fmt.Fprintf(&md, " %.4f | %.2f | %.4f | %.2f |\n", spread, spread/m.Bound, gap, gap/m.Bound)
			if gated[w.name] && ((m.Name != "setup_s" && spread > m.Bound) || gap > m.Bound) {
				breaches++
				fmt.Printf("BREACH %s/%s: spread %.4f gap %.4f bound %.3g\n", w.name, m.Name, spread, gap, m.Bound)
			}
		}
	}
	if len(failures) > 0 {
		fmt.Fprintf(&md, "\n## Failed runs\n\n")
		for _, f := range failures {
			fmt.Fprintf(&md, "- %s\n", f)
		}
	}
	fmt.Print(md.String())
	if err := os.WriteFile(noisePath, []byte(md.String()), 0o644); err != nil {
		return err
	}
	if breaches > 0 {
		return fmt.Errorf("%d breaches of the bounds or failed runs; see %s", breaches, noisePath)
	}
	return nil
}
