// Package failpoint is Eugene's fault-injection framework: named sites
// planted at proven-fragile seams (snapshot save/rename, pool teardown
// mid-batch, queue drain during stop, HTTP handler I/O, cluster proxy
// forwarding and snapshot replication) that chaos tests can arm with
// error, delay, or panic actions. Nothing outside a test arms a site,
// so a production binary never fires one.
//
// The package is stdlib-only and compiles to a near-no-op when no
// failpoint is armed: Inject/Hit are a single atomic load and a
// predictable branch, so sites can live on serving hot paths.
//
// # Arming failpoints
//
// One site at a time, or several from a spec list:
//
//	failpoint.Enable("snapshot.save.rename", "error(disk gone)")
//	defer failpoint.Disable("snapshot.save.rename")
//	failpoint.EnableSpec("sched.dispatch=delay(5ms);snapshot.save.rename=2*error")
//
// # Action specs
//
//	error            return a *failpoint.Error from Inject
//	error(msg)       same, with a custom message
//	delay(10ms)      sleep for the duration, then continue
//	panic            panic with a *failpoint.Error
//	panic(msg)       same, with a custom message
//	N*<action>       fire the action N times, then disarm the site
//
// Sites record how many times they fired; chaos suites assert coverage
// with Counts (every planted site must fire at least once).
package failpoint

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Error is the error injected by an armed error or panic action. Tests
// distinguish injected failures from real ones with errors.As.
type Error struct {
	// Site is the failpoint that fired.
	Site string
	// Msg is the action's message ("injected" when the spec gave none).
	Msg string
}

// Error implements error.
func (e *Error) Error() string { return fmt.Sprintf("failpoint %s: %s", e.Site, e.Msg) }

// kind enumerates action types.
type kind int

const (
	kindError kind = iota
	kindDelay
	kindPanic
)

// action is one parsed, armed action.
type action struct {
	kind  kind
	msg   string
	delay time.Duration
	// remaining is the fire budget: <0 means unlimited, 0 means spent
	// (the site stays registered for Counts but no longer fires).
	remaining int64
}

var (
	// armed counts armed sites; Inject's disabled fast path is a single
	// load of it.
	armed atomic.Int64

	mu    sync.Mutex
	sites = make(map[string]*action)
	// fired counts activations per site, kept across Disable so chaos
	// suites can assert coverage after the run.
	fired = make(map[string]*atomic.Int64)
)

// parseAction parses one action spec (see the package comment).
func parseAction(site, spec string) (*action, error) {
	a := &action{remaining: -1}
	if i := strings.IndexByte(spec, '*'); i >= 0 {
		n, err := strconv.ParseInt(spec[:i], 10, 64)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("failpoint %s: bad count %q", site, spec[:i])
		}
		a.remaining = n
		spec = spec[i+1:]
	}
	name, arg := spec, ""
	if i := strings.IndexByte(spec, '('); i >= 0 {
		if !strings.HasSuffix(spec, ")") {
			return nil, fmt.Errorf("failpoint %s: unclosed argument in %q", site, spec)
		}
		name, arg = spec[:i], spec[i+1:len(spec)-1]
	}
	switch name {
	case "error":
		a.kind = kindError
		a.msg = arg
	case "panic":
		a.kind = kindPanic
		a.msg = arg
	case "delay":
		a.kind = kindDelay
		d, err := time.ParseDuration(arg)
		if err != nil || d < 0 {
			return nil, fmt.Errorf("failpoint %s: bad delay %q", site, arg)
		}
		a.delay = d
	case "off":
		return nil, nil
	default:
		return nil, fmt.Errorf("failpoint %s: unknown action %q", site, name)
	}
	if a.msg == "" {
		a.msg = "injected"
	}
	return a, nil
}

// Enable arms one site with an action spec, replacing any previous
// arming. The spec "off" disarms.
func Enable(site, spec string) error {
	if site == "" {
		return fmt.Errorf("failpoint: empty site name")
	}
	a, err := parseAction(site, spec)
	if err != nil {
		return err
	}
	mu.Lock()
	defer mu.Unlock()
	if _, ok := sites[site]; ok {
		armed.Add(-1)
		delete(sites, site)
	}
	if a != nil {
		sites[site] = a
		armed.Add(1)
		if fired[site] == nil {
			fired[site] = new(atomic.Int64)
		}
	}
	return nil
}

// EnableSpec arms several sites from a semicolon-separated
// "site=action" list.
func EnableSpec(spec string) error {
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		site, act, ok := strings.Cut(part, "=")
		if !ok {
			return fmt.Errorf("failpoint: %q is not site=action", part)
		}
		if err := Enable(strings.TrimSpace(site), strings.TrimSpace(act)); err != nil {
			return err
		}
	}
	return nil
}

// Disable disarms one site. Its fire counter is retained.
func Disable(site string) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := sites[site]; ok {
		armed.Add(-1)
		delete(sites, site)
	}
}

// DisableAll disarms every site (test teardown).
func DisableAll() {
	mu.Lock()
	defer mu.Unlock()
	armed.Add(-int64(len(sites)))
	clear(sites)
}

// Counts returns a snapshot of per-site fire counters (every site ever
// armed, including since-disabled ones). Chaos suites use it to assert
// each planted site actually fired.
func Counts() map[string]int64 {
	mu.Lock()
	defer mu.Unlock()
	out := make(map[string]int64, len(fired))
	for site, n := range fired {
		out[site] = n.Load()
	}
	return out
}

// ResetCounts zeroes the fire counters (test setup).
func ResetCounts() {
	mu.Lock()
	defer mu.Unlock()
	for _, n := range fired {
		n.Store(0)
	}
}

// take claims one firing of the site's action, disarming it when a
// fire budget is spent. Returns nil when the site is not armed.
func take(site string) *action {
	mu.Lock()
	defer mu.Unlock()
	a, ok := sites[site]
	if !ok {
		return nil
	}
	if a.remaining == 0 {
		return nil
	}
	if a.remaining > 0 {
		a.remaining--
	}
	fired[site].Add(1)
	// Copy so the caller acts outside the lock (delay actions sleep).
	cp := *a
	return &cp
}

// Inject evaluates the named site: error actions return a *Error,
// delay actions sleep and return nil, panic actions panic. Unarmed
// sites cost one atomic load and return nil. Plant Inject on seams
// where an injected error has somewhere to go.
func Inject(site string) error {
	if armed.Load() == 0 {
		return nil
	}
	a := take(site)
	if a == nil {
		return nil
	}
	switch a.kind {
	case kindError:
		return &Error{Site: site, Msg: a.msg}
	case kindDelay:
		time.Sleep(a.delay)
		return nil
	case kindPanic:
		panic(&Error{Site: site, Msg: a.msg})
	}
	return nil
}

// Hit evaluates the named site on seams with no error return (worker
// dispatch, drain loops): delay and panic actions behave as in Inject;
// an error action only counts the firing, since there is nowhere to
// surface it.
func Hit(site string) {
	if armed.Load() == 0 {
		return
	}
	a := take(site)
	if a == nil {
		return
	}
	switch a.kind {
	case kindDelay:
		time.Sleep(a.delay)
	case kindPanic:
		panic(&Error{Site: site, Msg: a.msg})
	}
}
