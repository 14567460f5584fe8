// Package obs is the observability layer of the rewrite pipeline: a
// structured, allocation-light event and metrics sink that the kernel,
// the criu image pipeline, the fault injector and core.Customizer all
// emit into while they run (the role CRIU's --display-stats and
// DynamoRIO's drcov runtime counters play in the original stack).
//
// An Observer holds a bounded ring buffer of typed events, grown on
// demand up to its bound — each stamped with both the wall clock and
// the machine's virtual clock, so traces are deterministic under test
// — plus named counters and gauges. Exporters (jsonl.go) turn the
// ring into a JSONL trace or a human-readable phase summary.
//
// A nil *Observer is the off switch: every emit site checks for nil
// before doing any work, so an unobserved rewrite pays nothing.
package obs

import (
	"sync"
	"time"
)

// Kind classifies an event. String-typed so JSONL traces are
// self-describing without an enum table.
type Kind string

// Event kinds.
const (
	// KindPhaseStart / KindPhaseEnd bracket one rewrite phase
	// (checkpoint, pristine, decode, edit, validate, kill, restore,
	// health, rollback, reseal).
	KindPhaseStart Kind = "phase-start"
	KindPhaseEnd   Kind = "phase-end"
	// KindFault marks an injected fault (site in Name, hit count in N).
	KindFault Kind = "fault"
	// KindPoint is a single instantaneous event (commit, truncation...).
	KindPoint Kind = "point"
)

// Event is one trace record. Fields are fixed-width and flat so
// emitting one costs a ring slot, not an allocation.
type Event struct {
	// Seq is the observer-wide sequence number (monotonic, never
	// reused; survives ring overwrites so drops are detectable).
	Seq uint64 `json:"seq"`
	// WallNS is the wall-clock timestamp in Unix nanoseconds.
	WallNS int64 `json:"wall_ns"`
	// VClock is the machine's virtual clock (retired instructions) at
	// emit time — identical across reruns of a deterministic workload.
	VClock uint64 `json:"vclock"`
	Kind   Kind   `json:"kind"`
	// Name is the phase (spans), fault site (faults), or event name
	// (points).
	Name string `json:"name"`
	// Attempt is the rewrite attempt the event belongs to (0 = outside
	// the retry loop).
	Attempt int `json:"attempt,omitempty"`
	PID     int `json:"pid,omitempty"`
	// N is a generic numeric payload (pages, hit count, bytes...).
	N int64 `json:"n,omitempty"`
	// Err carries the failure of a phase-end event ("" = success).
	Err string `json:"err,omitempty"`
}

// DefaultCapacity is the ring size used when New is given 0.
const DefaultCapacity = 4096

// Observer is the sink. All methods are safe for concurrent use; the
// zero value is not usable — construct with New. Callers hold a
// *Observer that may be nil, and nil checks at the emit sites are the
// zero-overhead off switch.
type Observer struct {
	mu    sync.Mutex
	clock func() uint64
	wall  func() time.Time

	seq uint64
	// ring grows on demand (clamped doubling) up to bound slots; until
	// it first fills at the bound, len(ring) == n and head == 0.
	ring    []Event
	bound   int
	head    int // index of the oldest event
	n       int // events currently held
	dropped uint64

	counters map[string]int64
	gauges   map[string]int64
}

// New creates an observer whose event ring holds at most capacity
// events (0 = DefaultCapacity). The ring's backing array starts empty
// and grows as events arrive, so a quiet observer costs a few slots,
// not capacity. Until SetClock is called, events carry VClock 0.
func New(capacity int) *Observer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Observer{
		bound:    capacity,
		counters: map[string]int64{},
		gauges:   map[string]int64{},
	}
}

// SetClock installs the virtual-clock source (kernel.Machine wires its
// tick counter here via SetObserver).
func (o *Observer) SetClock(f func() uint64) {
	o.mu.Lock()
	o.clock = f
	o.mu.Unlock()
}

// SetWallClock overrides the wall-clock source (tests stub it for
// byte-identical JSONL traces). nil restores time.Now.
func (o *Observer) SetWallClock(f func() time.Time) {
	o.mu.Lock()
	o.wall = f
	o.mu.Unlock()
}

// stamp fills the clock fields and sequence number. Caller holds o.mu.
func (o *Observer) stamp(ev *Event) {
	ev.Seq = o.seq
	o.seq++
	if o.wall != nil {
		ev.WallNS = o.wall().UnixNano()
	} else {
		ev.WallNS = time.Now().UnixNano()
	}
	if o.clock != nil {
		ev.VClock = o.clock()
	}
}

// push appends one stamped event to the ring, overwriting the oldest
// once it holds bound events. Below the bound the backing array
// doubles when full, clamped so it never exceeds the bound. Caller
// holds o.mu.
func (o *Observer) push(ev Event) {
	if o.n == o.bound {
		o.ring[o.head] = ev
		o.head = (o.head + 1) % o.bound
		o.dropped++
		return
	}
	if o.n == cap(o.ring) {
		grown := make([]Event, o.n, min(max(2*o.n, 8), o.bound))
		copy(grown, o.ring)
		o.ring = grown
	}
	o.ring = append(o.ring, ev)
	o.n++
}

// Emit records one event, stamping Seq, WallNS and VClock.
func (o *Observer) Emit(ev Event) {
	o.mu.Lock()
	o.stamp(&ev)
	o.push(ev)
	o.mu.Unlock()
}

// PhaseStart opens a span for one rewrite phase; the PhaseEnd with the
// same name and attempt closes it. Summarize pairs the two events.
func (o *Observer) PhaseStart(name string, attempt int) {
	o.Emit(Event{Kind: KindPhaseStart, Name: name, Attempt: attempt})
}

// PhaseEnd closes a span; err ("" on success) is recorded on the
// event, so failed phases are visible in the trace.
func (o *Observer) PhaseEnd(name string, attempt int, err error) {
	ev := Event{Kind: KindPhaseEnd, Name: name, Attempt: attempt}
	if err != nil {
		ev.Err = err.Error()
	}
	o.Emit(ev)
}

// Point records an instantaneous named event with a numeric payload.
func (o *Observer) Point(name string, n int64) {
	o.Emit(Event{Kind: KindPoint, Name: name, N: n})
}

// Fault records an injected fault at a hook site.
func (o *Observer) Fault(site string, hit int) {
	o.mu.Lock()
	o.counters["faults.injected"]++
	ev := Event{Kind: KindFault, Name: site, N: int64(hit)}
	o.stamp(&ev)
	o.push(ev)
	o.mu.Unlock()
}

// Add increments a named counter and returns the new value.
func (o *Observer) Add(name string, delta int64) int64 {
	o.mu.Lock()
	o.counters[name] += delta
	v := o.counters[name]
	o.mu.Unlock()
	return v
}

// Counter reads a counter (0 if never written).
func (o *Observer) Counter(name string) int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.counters[name]
}

// Counters returns a copy of all counters.
func (o *Observer) Counters() map[string]int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make(map[string]int64, len(o.counters))
	for k, v := range o.counters {
		out[k] = v
	}
	return out
}

// SetGauge records the current value of a named gauge.
func (o *Observer) SetGauge(name string, v int64) {
	o.mu.Lock()
	o.gauges[name] = v
	o.mu.Unlock()
}

// Gauges returns a copy of all gauges.
func (o *Observer) Gauges() map[string]int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make(map[string]int64, len(o.gauges))
	for k, v := range o.gauges {
		out[k] = v
	}
	return out
}

// Events returns the buffered events, oldest first.
func (o *Observer) Events() []Event {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]Event, o.n)
	n := copy(out, o.ring[o.head:])
	copy(out[n:], o.ring[:o.head])
	return out
}

// Len returns how many events the ring currently holds.
func (o *Observer) Len() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.n
}

// Dropped returns how many events were overwritten by ring overflow.
func (o *Observer) Dropped() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.dropped
}

// Seq returns the next sequence number (== total events ever emitted).
func (o *Observer) Seq() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.seq
}
