package loadgen

import (
	"errors"
	"fmt"

	"github.com/dynacut/dynacut/internal/kernel"
	"github.com/dynacut/dynacut/internal/obs"
)

// OpenDriver fires requests at the vticks a Schedule dictates, whether
// or not earlier responses are outstanding — the open-loop discipline
// of the serverless loaders. Unlike the closed-loop Driver, which
// politely waits and therefore hides downtime as a single slow
// request, the OpenDriver keeps offering traffic while the guest is
// away: queued arrivals pile into the bounded in-flight window and the
// overflow is shed and counted as drops. That makes a rewrite's
// downtime show up the way production traffic would see it — a gap in
// served-per-bucket, a latency spike for the requests that waited, and
// a drop count for the ones that never got a slot.
type OpenDriver struct {
	Machine *kernel.Machine
	Port    uint16
	// Schedule dictates arrival vticks (required).
	Schedule Schedule
	// Mix supplies payloads for arrivals that do not carry their own.
	// May be nil when the schedule is fully payload-carrying (traces).
	Mix *Mix
	// BucketTicks sizes one accounting bucket (0 = 100_000). Arrivals
	// are bucketed by scheduled time, completions by completion time —
	// that skew is exactly how a service gap becomes visible.
	BucketTicks uint64
	// RequestBudget bounds the vticks one request may wait before it is
	// failed (0 = 2_000_000).
	RequestBudget uint64
	// MaxInFlight bounds the in-flight window; arrivals beyond it are
	// dropped, not queued (0 = 8).
	MaxInFlight int
	// PollTicks is the clock-pumping quantum between in-flight polls
	// (0 = 10_000). Smaller = finer completion timestamps, more host
	// work.
	PollTicks uint64
	// Observer, when non-nil, receives loadgen.request/error/drop
	// points and the loadgen.latency histogram.
	Observer *obs.Observer
	// Hook, when set, runs at every arrival boundary (before the
	// arrival fires) with the arrival's scheduled offset. The slo
	// harness uses it to interleave rollout work onto the driver's
	// goroutine — the machine's owner — at deterministic points.
	Hook func(offset uint64) error
}

// ErrNoSchedule marks an OpenDriver run without a schedule.
var ErrNoSchedule = errors.New("loadgen: open driver needs a schedule")

// flight is one outstanding open-loop request.
type flight struct {
	conn     *kernel.HostConn
	payload  string
	at       uint64 // scheduled offset from run start
	t0       uint64 // fire vclock
	got      int
	lastByte uint64 // vclock of the most recent response byte
}

// Run drives the schedule over horizon vticks, then keeps the clock
// moving until every in-flight request resolves (so the tail can run
// at most one RequestBudget past the horizon). Buckets densely cover
// the horizon even where nothing happened — a zero-response bucket
// with Offered > 0 is a service gap, and must be visible as such.
func (d *OpenDriver) Run(horizon uint64) (*Result, error) {
	if d.Schedule == nil {
		return nil, ErrNoSchedule
	}
	if d.BucketTicks == 0 {
		d.BucketTicks = 100_000
	}
	if d.RequestBudget == 0 {
		d.RequestBudget = 2_000_000
	}
	if d.MaxInFlight == 0 {
		d.MaxInFlight = 8
	}
	if d.PollTicks == 0 {
		d.PollTicks = 10_000
	}
	arrivals := d.Schedule.Arrivals(horizon)
	if d.Mix == nil {
		for _, a := range arrivals {
			if a.Payload == "" {
				return nil, ErrNoMix
			}
		}
	}
	res := &Result{}
	start := d.Machine.Clock()
	var pending []*flight
	for i := 0; i < len(arrivals); {
		a := arrivals[i]
		d.pumpTo(start+a.At, &pending, res, start)
		if d.Hook != nil {
			if err := d.Hook(a.At); err != nil {
				return nil, fmt.Errorf("arrival at %d hook: %w", a.At, err)
			}
		}
		// Fire every arrival now due — a hook or a guest-side clock
		// charge may have jumped the clock past several of them. They
		// are late through no fault of the schedule, but they still
		// arrive: open-loop means the offered load does not yield.
		now := d.Machine.Clock() - start
		for i < len(arrivals) && arrivals[i].At <= now {
			d.fire(arrivals[i], &pending, res, start)
			i++
		}
	}
	d.pumpTo(start+horizon, &pending, res, start)
	// Tail drain: every in-flight request resolves within its budget,
	// so this loop is bounded.
	for len(pending) > 0 {
		d.pumpTo(d.Machine.Clock()+d.PollTicks, &pending, res, start)
	}
	if horizon > 0 {
		res.bucketAt(horizon-1, d.BucketTicks)
	}
	return res, nil
}

// fire launches (or drops) one arrival.
func (d *OpenDriver) fire(a Arrival, pending *[]*flight, res *Result, start uint64) {
	res.Total++
	b := res.bucketAt(a.At, d.BucketTicks)
	b.Offered++
	if len(*pending) >= d.MaxInFlight {
		res.Dropped++
		b.Dropped++
		if d.Observer != nil {
			d.Observer.Point("loadgen.drop", int64(a.At))
		}
		return
	}
	payload := a.Payload
	if payload == "" {
		payload = d.Mix.Next()
	}
	conn, err := d.Machine.Dial(d.Port)
	if err == nil {
		_, err = conn.Write([]byte(payload))
	}
	if err != nil {
		d.fail(res, a.At, fmt.Errorf("fire %q: %w", payload, err))
		if conn != nil {
			conn.Close()
		}
		return
	}
	*pending = append(*pending, &flight{
		conn: conn, payload: payload, at: a.At,
		t0: d.Machine.Clock(), lastByte: d.Machine.Clock(),
	})
}

// fail records one failed request at the given offset.
func (d *OpenDriver) fail(res *Result, offset uint64, err error) {
	res.Errors++
	res.bucketAt(offset, d.BucketTicks).Errors++
	if len(res.Failures) < 4 {
		res.Failures = append(res.Failures, err.Error())
	}
	if d.Observer != nil {
		d.Observer.Point("loadgen.error", int64(offset))
	}
}

// pumpTo advances the virtual clock to target, executing the guest in
// PollTicks quanta and polling the in-flight window between them. When
// the guest has nothing runnable the clock is force-advanced — virtual
// time marches whether or not anyone is home, exactly like wall time.
func (d *OpenDriver) pumpTo(target uint64, pending *[]*flight, res *Result, start uint64) {
	d.poll(pending, res, start, false)
	for d.Machine.Clock() < target {
		step := target - d.Machine.Clock()
		if step > d.PollTicks {
			step = d.PollTicks
		}
		goal := d.Machine.Clock() + step
		ran := d.Machine.Run(step)
		if d.Machine.Clock() < goal {
			d.Machine.AdvanceClock(goal - d.Machine.Clock())
		}
		// A fully idle machine (zero steps retired) can never produce
		// another response byte until the host acts, so poll may
		// resolve byteful flights immediately instead of waiting out
		// their quiet window.
		d.poll(pending, res, start, ran == 0)
	}
}

// poll sweeps the in-flight window: collect newly arrived bytes,
// resolve completions (guest closed, quiet for a full
// kernel.QuietTicks window, or byteful while the machine is idle) and
// expire requests that outran their budget. It is not
// Machine.Exchange: many requests share the machine here and pumpTo
// force-advances the clock, so an idle machine does not end a flight
// that has no byte yet — a later arrival or a hook may still wake the
// guest before that flight's budget runs out.
func (d *OpenDriver) poll(pending *[]*flight, res *Result, start uint64, idle bool) {
	now := d.Machine.Clock()
	kept := (*pending)[:0]
	for _, f := range *pending {
		if b := f.conn.ReadAll(); len(b) > 0 {
			f.got += len(b)
			f.lastByte = now
		}
		switch {
		case f.conn.Closed():
			if f.got == 0 {
				d.fail(res, now-start, fmt.Errorf("no response to %q", f.payload))
			} else {
				d.complete(f, res, start)
			}
		case f.got > 0 && (idle || now-f.lastByte >= kernel.QuietTicks):
			// Quiet for a full drain window — or the machine is idle,
			// which proves no more bytes are coming: the response is
			// done even though the guest kept the connection open.
			d.complete(f, res, start)
			f.conn.Close()
		case now-f.t0 >= d.RequestBudget:
			if f.got > 0 {
				d.fail(res, now-start, fmt.Errorf("%w: %q got %d bytes in %d ticks",
					ErrTruncated, f.payload, f.got, d.RequestBudget))
			} else {
				d.fail(res, now-start, fmt.Errorf("timeout: %q got no bytes in %d ticks",
					f.payload, d.RequestBudget))
			}
			f.conn.Close()
		default:
			kept = append(kept, f)
		}
	}
	*pending = kept
}

// complete books one served request: latency runs from the SCHEDULED
// arrival — not the fire instant — to the last response byte, so a
// request that sat waiting while the guest was away is charged its
// wait (the open-loop discipline; measuring from fire time would
// silently absorb downtime into nothing, the closed-loop lie again).
// The completion lands in the bucket its last byte arrived in.
func (d *OpenDriver) complete(f *flight, res *Result, start uint64) {
	lat := f.lastByte - (start + f.at)
	res.Latency.Add(lat)
	res.bucketAt(f.lastByte-start, d.BucketTicks).Responses++
	if d.Observer != nil {
		d.Observer.Point("loadgen.request", int64(lat))
		d.Observer.Observe("loadgen.latency", int64(lat))
	}
}
