package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer's epoch; Parent is the ID of the span that caused it
// (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans from the benchmark's side of each boundary: the
// client call, the router's ServeHTTP and each replica's ServeHTTP. A
// nil tracer records nothing and wraps nothing, so untraced runs carry
// no instrumentation at all. Spans stay in memory until write.
//
// While armed, a tracer records during every second traceSlice since
// its epoch and nothing in between: the calls of a window then fall into
// traced and untraced ones that saw the same host, and the difference of
// their latencies is what tracing costs.
type tracer struct {
	epoch time.Time
	armed atomic.Bool
	mu    sync.Mutex
	spans []span
}

// start sets the epoch span times and slices count from.
func (t *tracer) start(epoch time.Time) {
	if t != nil {
		t.epoch = epoch
	}
}

// arm turns the slices on or off; the handlers stay wrapped.
func (t *tracer) arm(on bool) {
	if t != nil {
		t.armed.Store(on)
	}
}

// active reports whether what starts at now is recorded.
func (t *tracer) active(now time.Time) bool {
	return t != nil && t.armed.Load() && int(now.Sub(t.epoch)/traceSlice)%2 == 1
}

func (t *tracer) span(name string, start, end time.Time) {
	if !t.active(start) {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	t.mu.Unlock()
}

func (t *tracer) wrap(name string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Only the serving surface: the router's probes of a replica would
		// otherwise sit inside a request's router span and claim it.
		if !strings.HasPrefix(r.URL.Path, "/v1/models/") && !strings.HasPrefix(r.URL.Path, "/v1/devices/") {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		t.span(name, start, time.Now())
	})
}

// link sets each child span's Parent to the narrowest parent-named span
// whose interval contains it and that no other child has claimed. The
// router forwards no headers, so containment in time is the only join
// there is; one router span has exactly one replica span unless the
// request failed over.
func link(spans []span, child, parent string) {
	var ps, cs []int
	for i := range spans {
		switch spans[i].Name {
		case parent:
			ps = append(ps, i)
		case child:
			cs = append(cs, i)
		}
	}
	sort.Slice(ps, func(a, b int) bool { return spans[ps[a]].Start < spans[ps[b]].Start })
	sort.Slice(cs, func(a, b int) bool { return spans[cs[a]].Start < spans[cs[b]].Start })
	claimed := make(map[int]bool)
	lo := 0
	for _, c := range cs {
		// Parents are scanned from the first that can still contain a
		// child starting here or later.
		for lo < len(ps) && spans[ps[lo]].End < spans[c].Start {
			lo++
		}
		best := -1
		for _, p := range ps[lo:] {
			if spans[p].Start > spans[c].Start {
				break
			}
			if claimed[p] || spans[p].End < spans[c].End {
				continue
			}
			if best < 0 || spans[p].End-spans[p].Start < spans[best].End-spans[best].Start {
				best = p
			}
		}
		if best >= 0 {
			claimed[best] = true
			spans[c].Parent = spans[best].ID
		}
	}
}

// hopShares returns, per routed request, the share of the client-seen
// time that the router added: (router − replica) ÷ call.
func hopShares(spans []span) []float64 {
	byID := make(map[int]*span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	var out []float64
	for i := range spans {
		rep := &spans[i]
		if rep.Name != "replica" {
			continue
		}
		rt := byID[rep.Parent]
		if rt == nil {
			continue
		}
		cl := byID[rt.Parent]
		if cl == nil || cl.End == cl.Start {
			continue
		}
		out = append(out, float64((rt.End-rt.Start)-(rep.End-rep.Start))/float64(cl.End-cl.Start))
	}
	sort.Float64s(out)
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
