package sched

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// ErrOverloaded is returned at admission when the predicted completion
// time of a new request already misses its deadline: running it would
// burn worker cycles on an answer that arrives dead. RetryAfter is the
// scheduler's estimate of how long the backlog needs to drain enough
// for a resubmission to meet its deadline; the HTTP layer maps it to a
// 429 with a Retry-After header. Match with errors.As:
//
//	var ov *sched.ErrOverloaded
//	if errors.As(err, &ov) { wait(ov.RetryAfter) }
type ErrOverloaded struct {
	// RetryAfter is the suggested back-off before retrying.
	RetryAfter time.Duration
	// Predicted is the completion latency the admission model forecast.
	Predicted time.Duration
	// Deadline is the latency constraint the forecast missed.
	Deadline time.Duration
}

// Error implements error.
func (e *ErrOverloaded) Error() string {
	return fmt.Sprintf("sched: overloaded: predicted completion %v exceeds deadline %v (retry after %v)",
		e.Predicted.Round(time.Millisecond), e.Deadline, e.RetryAfter.Round(time.Millisecond))
}

// ewma is a lock-free exponentially weighted moving average: float64
// bits in an atomic word, CAS-updated. Readers see a torn-free value
// with one atomic load.
type ewma struct{ bits atomic.Uint64 }

// Load returns the current average (0 before the first observation).
func (e *ewma) Load() float64 { return math.Float64frombits(e.bits.Load()) }

// Observe folds x in with weight alpha, reading zero as "no
// observations yet": the first observation seeds the average directly.
func (e *ewma) Observe(alpha, x float64) {
	if e.bits.Load() == 0 && e.bits.CompareAndSwap(0, math.Float64bits(x)) {
		return
	}
	e.fold(alpha, x)
}

// fold is the plain from-zero update v += alpha·(x − v): for a rate,
// where 0 is a value ("nothing observed so far was a hit") and not the
// absence of one.
func (e *ewma) fold(alpha, x float64) {
	for {
		old := e.bits.Load()
		v := math.Float64frombits(old)
		v += alpha * (x - v)
		if e.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Admission-model constants. The model is deliberately coarse — a
// blended per-stage cost times a backlog length — because admission
// only needs to be monotone in load: at 2-10x capacity the forecast is
// dominated by the backlog term, and a 2x error in per-stage cost
// moves the rejection threshold, not the behavior under sustained
// overload.
const (
	// costAlpha smooths the per-task per-stage dispatch cost.
	costAlpha = 1.0 / 32
	// stagesAlpha smooths the stages-per-answered-task average.
	stagesAlpha = 1.0 / 32
	// rejectAlpha smooths the admission-rejection rate that drives the
	// degradation ladder.
	rejectAlpha = 1.0 / 64
	// admitWarmup is how many dispatches must be observed before the
	// admission model trusts its cost estimate; until then everything
	// is admitted (cold-start requests must not be rejected on a zero
	// estimate).
	admitWarmup = 16
	// minRetryAfter / maxRetryAfter clamp the backoff hint.
	minRetryAfter = 10 * time.Millisecond
	maxRetryAfter = 2 * time.Second
)

// Degradation-ladder thresholds on the rejection-rate EWMA. Under
// sustained pressure the executor sheds load before rejecting: level 1
// forces earlier early-exit stages from remaining slack, level 2
// additionally signals the serving layer to switch to its cheaper f32
// tier (see LiveConfig.DegradeSignal).
const (
	DegradeNone   = 0 // no sustained rejections
	DegradeExit   = 1 // force earlier exits from remaining slack
	DegradeTier   = 2 // + serve the reduced-precision tier
	degradeExitAt = 0.10
	degradeTierAt = 0.35
)

// admitState is the Live executor's admission-control and degradation
// bookkeeping; all fields are atomics (updated from submitters and
// workers concurrently).
type admitState struct {
	// stageNs is the EWMA per-task cost of one stage dispatch, in
	// nanoseconds, blended across stages (batched dispatches divide the
	// wall time by the group size).
	stageNs ewma
	// taskStages is the EWMA number of stages an answered task runs.
	taskStages ewma
	// dispatches counts cost observations (warm-up gate).
	dispatches atomic.Uint64
	// rejectRate is the admission-rejection EWMA behind the ladder.
	rejectRate ewma
	// level is the current degradation level (Degrade* constants).
	level atomic.Int32
	// rejected counts admission rejections (LiveStats.Rejected).
	rejected atomic.Uint64
}

// observeDispatch records one stage dispatch of group size n that took
// elapsed wall time.
func (a *admitState) observeDispatch(n int, elapsed time.Duration) {
	if n <= 0 || elapsed <= 0 {
		return
	}
	a.stageNs.Observe(costAlpha, float64(elapsed)/float64(n))
	a.dispatches.Add(1)
}

// taskCostNs estimates one task's total service time in nanoseconds
// (0 while the model is cold).
func (a *admitState) taskCostNs() float64 {
	if a.dispatches.Load() < admitWarmup {
		return 0
	}
	per := a.stageNs.Load()
	if per <= 0 {
		return 0
	}
	stages := a.taskStages.Load()
	if stages < 1 {
		stages = 1
	}
	return per * stages
}

// noteDecision folds one admission decision into the rejection EWMA
// and recomputes the degradation level, publishing it to the optional
// gauge.
func (l *Live) noteDecision(rejected bool) {
	x := 0.0
	if rejected {
		x = 1.0
	}
	l.adm.rejectRate.fold(rejectAlpha, x)
	r := l.adm.rejectRate.Load()
	var lvl int32
	switch {
	case r >= degradeTierAt:
		lvl = DegradeTier
	case r >= degradeExitAt:
		lvl = DegradeExit
	}
	if l.adm.level.Swap(lvl) != lvl && l.cfg.DegradeSignal != nil {
		l.cfg.DegradeSignal.Store(lvl)
	}
}

// admit runs the SLO admission check for n incoming tasks: using the
// observed per-stage cost and the current backlog (the tasks in the
// system, queued or executing, that are not answered yet), it forecasts
// the completion time of the last of the n tasks and rejects with
// ErrOverloaded when the forecast already misses the deadline. Admission is a no-op while
// LiveConfig.Admission is false or the cost model is cold.
func (l *Live) admit(n int) error {
	if !l.cfg.Admission {
		return nil
	}
	taskNs := l.adm.taskCostNs()
	if taskNs <= 0 {
		return nil
	}
	backlog := float64(l.inSystem.Load()) + float64(n)
	predicted := time.Duration(backlog / float64(l.cfg.Workers) * taskNs)
	if predicted <= l.cfg.Deadline {
		l.noteDecision(false)
		return nil
	}
	retry := predicted - l.cfg.Deadline
	if retry < minRetryAfter {
		retry = minRetryAfter
	}
	if retry > maxRetryAfter {
		retry = maxRetryAfter
	}
	l.adm.rejected.Add(uint64(n))
	l.noteDecision(true)
	return &ErrOverloaded{RetryAfter: retry, Predicted: predicted, Deadline: l.cfg.Deadline}
}

// DegradeLevel returns the executor's current degradation level (one
// of the Degrade* constants).
func (l *Live) DegradeLevel() int { return int(l.adm.level.Load()) }

// groupCap returns the dispatch-group size limit for one stage bucket:
// MaxBatch when admission control is off or the cost model is cold,
// otherwise the largest group whose batched execution still fits
// inside the slack of the tightest deadline among the candidates — a
// full fixed-size batch ahead of a nearly-due task would blow its
// deadline on dispatch-wait alone. slackNs is that tightest slack.
func (l *Live) groupCap(slackNs int64) int {
	maxB := l.cfg.MaxBatch
	if !l.cfg.Admission {
		return maxB
	}
	per := l.adm.stageNs.Load()
	if l.adm.dispatches.Load() < admitWarmup || per <= 0 || slackNs <= 0 {
		return maxB
	}
	n := int(float64(slackNs) / per)
	if n < 1 {
		return 1
	}
	if n > maxB {
		return maxB
	}
	return n
}

// forceExit reports whether a surviving task should be finalized now
// with its current answer instead of running further stages: under
// degradation level ≥ 1, a task whose remaining slack cannot cover the
// next stage (scaled by the level — deeper degradation demands more
// headroom) answers early rather than burning a dispatch it cannot
// finish. Only meaningful after at least one stage has run (there is
// an answer to serve).
func (l *Live) forceExit(slackNs int64) bool {
	lvl := int64(l.adm.level.Load())
	if lvl < DegradeExit {
		return false
	}
	per := l.adm.stageNs.Load()
	if per <= 0 {
		return false
	}
	return slackNs < int64(per)*lvl
}
