// Package events is the deterministic discrete-event simulation engine:
// one timestamped priority queue onto which churn arrivals and departures,
// overlay-maintenance cycles, correlated fault bursts and query floods are
// all scheduled as interleaved events over a simulated horizon. The static
// trial engine (internal/experiments) takes independent snapshots; this
// engine is what expresses the time-dependent failure modes a production
// overlay actually faces — cascading churn, flash crowds on transiently
// popular terms, repair racing decay — and streams windowed metrics
// through the observability plane instead of end-of-trial aggregates.
//
// # Determinism contract
//
// The engine is schedule-invariant by construction:
//
//   - Events execute in (Time, Priority, sequence) order. The sequence
//     number is assigned at Schedule time from the single scheduling
//     goroutine, so the execution order is a pure function of what was
//     scheduled, never of heap internals or map iteration.
//   - Every event draws randomness from a stream derived by name from the
//     engine seed (the same rng.Derive trick churn.Timeline uses), so an
//     event's decisions depend only on (seed, event name) — adding,
//     removing or reordering *other* events never perturbs them.
//   - Handlers run sequentially on the engine goroutine. A handler may fan
//     work out through internal/parallel (per-item derived streams,
//     index-ordered reduction), which is how windowed query measurements
//     stay byte-identical at every worker count.
package events

import (
	"container/heap"
	"fmt"

	"querycentric/internal/obs"
	"querycentric/internal/rng"
)

// Priority orders events that share a timestamp: session transitions
// apply first, then correlated fault bursts, then maintenance (so failure
// detection sees the new liveness state), then query load (measuring the
// maintained overlay), and window closes last (reading a settled instant).
type Priority uint8

// Priorities in same-timestamp execution order.
const (
	PrioChurn Priority = iota
	PrioFault
	PrioMaint
	// PrioAdapt orders overlay-adaptation rounds (rewiring, replication)
	// after maintenance but before the instant's queries, so a query batch
	// at time t always runs over the topology adapted through time t.
	PrioAdapt
	PrioQuery
	PrioWindow
)

// Handler is one event's action. now is the event's timestamp; r is the
// event's private stream, derived from (engine seed, event name).
type Handler func(now int64, r *rng.Source) error

// event is one queue entry.
type event struct {
	time int64
	prio Priority
	seq  uint64
	name string
	fn   Handler
}

// eventHeap is a min-heap over (time, prio, seq).
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.time != b.time {
		return a.time < b.time
	}
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// Engine is one deterministic event queue. It is single-goroutine: Schedule
// and Run must be called from the same goroutine (handlers may schedule
// follow-up events — that is how periodic cycles self-perpetuate).
type Engine struct {
	seed    uint64
	base    *rng.Source
	horizon int64
	now     int64
	queue   eventHeap
	seq     uint64
	running bool

	processed uint64

	// Obs handles; nil-safe, so the engine publishes unconditionally.
	scheduled *obs.Counter
	executed  *obs.Counter
	depth     *obs.Gauge
}

// New returns an engine for the simulated horizon (0, horizon]. Events are
// dispatched in timestamp order until the queue drains or the horizon
// passes.
func New(seed uint64, horizon int64) (*Engine, error) {
	if horizon <= 0 {
		return nil, fmt.Errorf("events: horizon must be positive, got %d", horizon)
	}
	return &Engine{
		seed:    seed,
		base:    rng.NewNamed(seed, "events/engine"),
		horizon: horizon,
	}, nil
}

// Instrument attaches engine counters (events_scheduled_total,
// events_executed_total, events_queue_depth) to reg; nil detaches.
func (e *Engine) Instrument(reg *obs.Registry) {
	if reg == nil {
		e.scheduled, e.executed, e.depth = nil, nil, nil
		return
	}
	e.scheduled = reg.Counter("events_scheduled_total")
	e.executed = reg.Counter("events_executed_total")
	e.depth = reg.Gauge("events_queue_depth")
}

// Horizon returns the simulated end time.
func (e *Engine) Horizon() int64 { return e.horizon }

// Processed returns how many events have executed.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the current queue depth.
func (e *Engine) Pending() int { return len(e.queue) }

// Schedule enqueues an event at time `at` with the given priority. The
// name must be unique per event (it derives the event's rng stream and
// labels scheduling errors); periodic events bake an index into it, e.g.
// "maint/42". Scheduling into the past — before the event currently being
// dispatched — is a bug in the caller and is rejected; scheduling beyond
// the horizon is allowed (the event is silently shed when Run ends).
func (e *Engine) Schedule(at int64, prio Priority, name string, fn Handler) error {
	if fn == nil {
		return fmt.Errorf("events: event %q scheduled with nil handler", name)
	}
	if at < e.now {
		return fmt.Errorf("events: event %q scheduled at t=%d, before current t=%d", name, at, e.now)
	}
	ev := &event{time: at, prio: prio, seq: e.seq, name: name, fn: fn}
	e.seq++
	heap.Push(&e.queue, ev)
	e.scheduled.Inc()
	return nil
}

// Run dispatches events in (time, priority, sequence) order until the
// queue is empty or the next event lies beyond the horizon. The first
// handler error aborts the run.
func (e *Engine) Run() error {
	if e.running {
		return fmt.Errorf("events: Run re-entered")
	}
	e.running = true
	defer func() { e.running = false }()
	for {
		more, err := e.step()
		if err != nil {
			return err
		}
		if !more {
			break
		}
	}
	e.now = e.horizon
	return nil
}

// step dispatches the next event, reporting false when the queue is empty
// or the next event lies beyond the horizon (shed events stay queued,
// visible through Pending).
func (e *Engine) step() (bool, error) {
	if len(e.queue) == 0 || e.queue[0].time > e.horizon {
		return false, nil
	}
	ev := heap.Pop(&e.queue).(*event)
	e.now = ev.time
	r := e.base.Derive(ev.name)
	if err := ev.fn(ev.time, r); err != nil {
		return false, fmt.Errorf("events: %q at t=%d: %w", ev.name, ev.time, err)
	}
	e.processed++
	e.executed.Inc()
	e.depth.Set(int64(len(e.queue)))
	return true, nil
}

// every schedules a self-rescheduling periodic event: fn(round, now) runs
// at start, start+interval, ... at the given priority until the next tick
// would pass the engine's horizon. Rounds are numbered from 0 and named
// "<prefix>/<round>", so each gets its own derived stream (which fn does
// not see: periodic work draws from its subsystem's own streams).
func every(e *Engine, start, interval int64, prio Priority, prefix string, fn func(round int, now int64) error) error {
	if interval < 1 {
		return fmt.Errorf("events: %s interval must be positive, got %d", prefix, interval)
	}
	if start < 0 {
		return fmt.Errorf("events: %s start must be non-negative, got %d", prefix, start)
	}
	round := 0
	var tick Handler
	tick = func(now int64, _ *rng.Source) error {
		if err := fn(round, now); err != nil {
			return err
		}
		next := now + interval
		if next > e.Horizon() {
			return nil
		}
		round++
		return e.Schedule(next, prio, fmt.Sprintf("%s/%d", prefix, round), tick)
	}
	if start > e.Horizon() {
		return nil
	}
	return e.Schedule(start, prio, prefix+"/0", tick)
}
