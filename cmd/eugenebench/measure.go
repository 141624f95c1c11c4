package main

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// quantile returns the q-quantile of sorted by nearest rank.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[min(len(sorted)-1, int(q*float64(len(sorted))))]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime), nil
}

// rssMiB reads the resident set size from /proc/self/statm.
func rssMiB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	fields := strings.Fields(string(raw))
	if len(fields) < 2 {
		return 0, fmt.Errorf("statm: %q", raw)
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("statm: %w", err)
	}
	return float64(pages*int64(os.Getpagesize())) / (1 << 20), nil
}

// rssMeter samples the resident set size every 100 ms and keeps the
// peak since it was last taken.
type rssMeter struct {
	mu   sync.Mutex
	peak float64 // MiB
	err  error
	stop chan struct{}
	done chan struct{}
}

func startRSS() *rssMeter {
	m := &rssMeter{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			m.sample()
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

func (m *rssMeter) sample() {
	v, err := rssMiB()
	m.mu.Lock()
	m.peak = max(m.peak, v)
	if err != nil {
		m.err = err
	}
	m.mu.Unlock()
}

// take returns the peak since the previous take, now included.
func (m *rssMeter) take() float64 {
	m.sample()
	m.mu.Lock()
	defer m.mu.Unlock()
	peak := m.peak
	m.peak = 0
	return peak
}

// close stops the sampler and reports a read error, if there was one.
func (m *rssMeter) close() error {
	close(m.stop)
	<-m.done
	return m.err
}

// windowStat is one driven window.
type windowStat struct {
	dur time.Duration // first send to last answer (open loop: the schedule's length)
	// speed is the host's speed over the window as a share of the
	// reference host's: the mean of the probes on either side.
	speed float64
	cpu   time.Duration // process user+system CPU over the window
	rss   float64       // MiB, the peak inside the window

	calls, refused, failed       int
	offered, met, correct, wrong int       // rows
	lat                          []float64 // per call, ms, sorted
	late                         []float64 // open loop: send − due per call, ms
	latByKind                    [4][]float64
	latTraced, latPlain          []float64 // traced run: lat by whether the call was traced
}

// score folds a window's calls into its statistics.
func score(calls []call, dur time.Duration, speed float64, cpu time.Duration, rss float64) windowStat {
	ws := windowStat{dur: dur, speed: speed, cpu: cpu, rss: rss, calls: len(calls)}
	for i := range calls {
		c := &calls[i]
		ws.offered += c.rows
		ws.met += c.met
		ws.correct += c.correct
		ws.wrong += c.wrong
		if c.refused {
			ws.refused++
		}
		if c.failed {
			ws.failed++
		}
		ws.lat = append(ws.lat, ms(c.latency()))
		ws.late = append(ws.late, ms(c.start-c.due))
		ws.latByKind[c.kind] = append(ws.latByKind[c.kind], ms(c.latency()))
		if c.traced {
			ws.latTraced = append(ws.latTraced, ms(c.latency()))
		} else {
			ws.latPlain = append(ws.latPlain, ms(c.latency()))
		}
	}
	sort.Float64s(ws.lat)
	return ws
}

// tally is what a set of windows adds up to. The timing metrics are
// medians over the windows of each window's own value, scaled to the
// reference host's speed (raw*: as the clock saw them). An open loop's
// goodput is paced by its schedule, not by the host, and is not scaled.
type tally struct {
	windows                        int
	calls, refused, failed         int
	rows, met, correct, wrongRows  int
	thinWindows                    int       // windows with < 10 calls beyond their p95
	late                           []float64 // sorted
	latByKind                      [4][]float64
	latTraced, latPlain            []float64 // sorted
	goodput, p50, p95, cpuPerKrow  float64
	rawGoodput, rawP50, rawP95     float64
	rawCPUPerKrow, speed, sloShare float64
	utilShare, peakRSS             float64
}

// summarize derives the metrics from the windows.
func summarize(w *workload, all []windowStat) *tally {
	t := &tally{}
	var rates, p50s, p95s, cpus, rawRates, rawP50s, rawP95s, rawCPUs, speeds, slos, peaks []float64
	for k := range all {
		ws := &all[k]
		t.windows++
		t.calls += ws.calls
		t.refused += ws.refused
		t.failed += ws.failed
		t.rows += ws.offered
		t.met += ws.met
		t.correct += ws.correct
		t.wrongRows += ws.wrong
		t.late = append(t.late, ws.late...)
		t.latTraced = append(t.latTraced, ws.latTraced...)
		t.latPlain = append(t.latPlain, ws.latPlain...)
		for kind := range ws.latByKind {
			t.latByKind[kind] = append(t.latByKind[kind], ws.latByKind[kind]...)
		}
		if len(ws.lat)-int(0.95*float64(len(ws.lat))) < 10 {
			t.thinWindows++
		}
		rate := float64(ws.met) / ws.dur.Seconds()
		p50, p95 := quantile(ws.lat, 0.50), quantile(ws.lat, 0.95)
		cpu := ws.cpu.Seconds() / float64(max(1, ws.offered)) * 1000
		rawRates, rawP50s, rawP95s, rawCPUs = append(rawRates, rate), append(rawP50s, p50), append(rawP95s, p95), append(rawCPUs, cpu)
		if !w.open() {
			rate /= ws.speed
		}
		rates, p50s, p95s, cpus = append(rates, rate), append(p50s, p50*ws.speed), append(p95s, p95*ws.speed), append(cpus, cpu*ws.speed)
		speeds, peaks = append(speeds, ws.speed), append(peaks, ws.rss)
		slos = append(slos, float64(ws.met)/float64(max(1, ws.offered)))
	}
	t.goodput, t.p50, t.p95, t.cpuPerKrow = median(rates), median(p50s), median(p95s), median(cpus)
	t.rawGoodput, t.rawP50, t.rawP95, t.rawCPUPerKrow = median(rawRates), median(rawP50s), median(rawP95s), median(rawCPUs)
	t.speed, t.sloShare, t.peakRSS = median(speeds), median(slos), median(peaks)
	if t.rows > 0 {
		t.utilShare = float64(t.correct) / float64(t.rows)
	}
	sort.Float64s(t.late)
	sort.Float64s(t.latTraced)
	sort.Float64s(t.latPlain)
	for k := range t.latByKind {
		sort.Float64s(t.latByKind[k])
	}
	return t
}
