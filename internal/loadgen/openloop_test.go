package loadgen

import (
	"errors"
	"testing"
)

// TestOpenDriverAgainstKVStore: open-loop constant-rate traffic into a
// healthy guest. Everything scheduled must be accounted for exactly
// once — served, errored or dropped — and the bucket grid must densely
// cover the horizon with offered counts summing to the schedule.
func TestOpenDriverAgainstKVStore(t *testing.T) {
	m, port := bootKV(t)
	d := &OpenDriver{
		Machine:     m,
		Port:        port,
		Schedule:    NewConstant(10_000),
		Mix:         NewMix(Request{Payload: "GET a\n", Weight: 4}, Request{Payload: "PING\n"}),
		BucketTicks: 100_000,
	}
	const horizon = 400_000
	res, err := d.Run(horizon)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 40 {
		t.Fatalf("total = %d, want 40 scheduled", res.Total)
	}
	if got := res.Served() + res.Errors + res.Dropped; got != res.Total {
		t.Fatalf("served %d + errors %d + dropped %d = %d, want Total %d",
			res.Served(), res.Errors, res.Dropped, got, res.Total)
	}
	if res.Errors != 0 {
		t.Fatalf("errors = %d: %v", res.Errors, res.Failures)
	}
	if res.Served() == 0 || res.Latency.Percentile(99) == 0 {
		t.Fatal("no latency data")
	}
	if len(res.Buckets) < int(horizon/d.BucketTicks) {
		t.Fatalf("buckets = %d, want >= %d (dense horizon coverage)", len(res.Buckets), horizon/d.BucketTicks)
	}
	offered := 0
	for i, b := range res.Buckets {
		if b.Index != i {
			t.Fatalf("bucket %d has index %d", i, b.Index)
		}
		offered += b.Offered
	}
	if offered != res.Total {
		t.Fatalf("sum(Offered) = %d, want %d", offered, res.Total)
	}
}

// TestOpenDriverClockJumpShedsLoad is the downtime shape the open loop
// exists to expose: a mid-run virtual-clock jump (what a rewrite's
// charged downtime looks like) must produce a visible service gap —
// buckets with offered arrivals but no completions — and shed the
// backlog beyond the in-flight window as counted drops. A closed-loop
// driver would hide all of this inside one slow request.
func TestOpenDriverClockJumpShedsLoad(t *testing.T) {
	m, port := bootKV(t)
	jumped := false
	d := &OpenDriver{
		Machine:     m,
		Port:        port,
		Schedule:    NewConstant(5_000),
		Mix:         NewMix(Request{Payload: "PING\n"}),
		BucketTicks: 100_000,
		MaxInFlight: 4,
		Hook: func(offset uint64) error {
			if offset == 200_000 && !jumped {
				jumped = true
				m.AdvanceClock(100_000)
			}
			return nil
		},
	}
	res, err := d.Run(400_000)
	if err != nil {
		t.Fatal(err)
	}
	if !jumped {
		t.Fatal("hook never saw offset 200000")
	}
	if got := res.Served() + res.Errors + res.Dropped; got != res.Total {
		t.Fatalf("served %d + errors %d + dropped %d = %d, want Total %d",
			res.Served(), res.Errors, res.Dropped, got, res.Total)
	}
	// The arrivals scheduled inside the jumped-over window all become
	// due at once: the in-flight window takes 4, the rest are shed.
	if res.Dropped == 0 {
		t.Fatal("clock jump shed no load")
	}
	// Bucket 2 covers [200k, 300k): its arrivals were offered but the
	// guest never executed inside it, so it must read as a gap.
	gap := res.Buckets[2]
	if gap.Offered < 15 {
		t.Fatalf("gap bucket offered = %d, want >= 15", gap.Offered)
	}
	if gap.Responses > 1 {
		t.Fatalf("gap bucket responses = %d, want <= 1 (service gap invisible)", gap.Responses)
	}
	// Steady-state buckets on either side kept serving.
	if res.Buckets[0].Responses == 0 || res.Buckets[3].Responses == 0 {
		t.Fatalf("steady buckets empty: %+v / %+v", res.Buckets[0], res.Buckets[3])
	}
}

// TestOpenDriverTracePayloads: a payload-carrying trace needs no Mix —
// each arrival's request comes from its trace slot.
func TestOpenDriverTracePayloads(t *testing.T) {
	m, port := bootKV(t)
	trace, err := ParseTraceCSV("4,PING\n2,GET a\n4,PING", 100_000)
	if err != nil {
		t.Fatal(err)
	}
	d := &OpenDriver{Machine: m, Port: port, Schedule: trace}
	res, err := d.Run(uint64(len(trace.slots)) * trace.SlotTicks)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 10 {
		t.Fatalf("total = %d, want 10", res.Total)
	}
	if res.Errors != 0 || res.Served() == 0 {
		t.Fatalf("errors = %d (%v), served = %d", res.Errors, res.Failures, res.Served())
	}
}

// TestOpenDriverDeterministicRuns: the same schedule against two
// clones of the same booted machine produces identical accounting.
func TestOpenDriverDeterministicRuns(t *testing.T) {
	m, port := bootKV(t)
	run := func() *Result {
		d := &OpenDriver{
			Machine:  m.Clone(),
			Port:     port,
			Schedule: NewPoisson(8_000, 99),
			Mix:      NewMix(Request{Payload: "PING\n"}),
		}
		res, err := d.Run(300_000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Total != b.Total || a.Served() != b.Served() || a.Dropped != b.Dropped || a.Errors != b.Errors {
		t.Fatalf("runs diverged: %d/%d/%d/%d vs %d/%d/%d/%d",
			a.Total, a.Served(), a.Dropped, a.Errors,
			b.Total, b.Served(), b.Dropped, b.Errors)
	}
	as, bs := a.Latency.samples, b.Latency.samples
	for i := range as {
		if as[i] != bs[i] {
			t.Fatalf("latency sample %d: %d vs %d", i, as[i], bs[i])
		}
	}
}

func TestOpenDriverValidation(t *testing.T) {
	m, port := bootKV(t)
	d := &OpenDriver{Machine: m, Port: port}
	if _, err := d.Run(100_000); !errors.Is(err, ErrNoSchedule) {
		t.Fatalf("err = %v, want ErrNoSchedule", err)
	}
	d.Schedule = NewConstant(10_000) // no payloads, no mix
	if _, err := d.Run(100_000); !errors.Is(err, ErrNoMix) {
		t.Fatalf("err = %v, want ErrNoMix", err)
	}
}
