// Command eugenebench is the repository's benchmark: it runs one
// workload from a seed against the serving stack assembled in this
// process, checks every answer against a reference, and prints every
// metric by name with its unit. See bench/README.md.
//
//	eugenebench -workload batch_direct -seed 1 -seconds 20 -trace 0
//	eugenebench -workload open_devices -seed 1 -seconds 20 -trace 1   (per-layer ledger)
//	eugenebench -selfcheck 3                                          (noise record → bench/NOISE.md)
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
)

func main() {
	name := flag.String("workload", "", "workload to run: batch_direct, batch_routed, open_devices or deadline_squeeze")
	seed := flag.Int64("seed", 1, "seed of the generated inputs: row order, request mix, device ids, arrival schedule")
	seconds := flag.Int("seconds", 20, "seconds of measurement; selfcheck takes run_seconds from BENCHMARK.json")
	trace := flag.Int("trace", 0, "1 reruns the workload with spans and the ladder and prints the per-layer metrics")
	sets := flag.Int("selfcheck", 0, "run this many sets of ten runs per workload, compare them with the bounds, rewrite the noise record")
	flag.Parse()

	if *sets > 0 {
		if err := selfcheck(*sets, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "eugenebench:", err)
			os.Exit(1)
		}
		return
	}
	w := findWorkload(*name)
	if w == nil || *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "eugenebench: need -workload (one of the four), -seconds ≥ 1 and -trace 0|1")
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(context.Background(), os.Stdout, w, *seed, defaultPlan(*seconds, *trace == 1), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "eugenebench:", err)
		if errors.Is(err, errInvalid) {
			os.Exit(3)
		}
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "eugenebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "eugenebench: wrong answers, refused or failed calls; see the counts above")
		os.Exit(1)
	}
}
