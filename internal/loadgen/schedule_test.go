package loadgen

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// TestSchedulesDeterministic: every schedule — including the seeded
// stochastic ones — must materialize a byte-identical arrival sequence
// on every call, and every arrival must land inside the horizon in
// nondecreasing order. Reproducibility is the whole point of running
// load on a virtual clock.
func TestSchedulesDeterministic(t *testing.T) {
	const horizon = 1_000_000
	trace, err := ParseTraceCSV("3,GET a\n5,PING\n0\n2,SET b 1", 50_000)
	if err != nil {
		t.Fatal(err)
	}
	schedules := []Schedule{
		NewConstant(7_000),
		NewStepRamp(2, 3, 90_000),
		NewPoisson(9_000, 1),
		NewPoisson(9_000, 424242),
		trace,
	}
	for k, s := range schedules {
		a1 := s.Arrivals(horizon)
		a2 := s.Arrivals(horizon)
		if !reflect.DeepEqual(a1, a2) {
			t.Errorf("schedule %d (%T): two materializations differ", k, s)
		}
		if len(a1) == 0 {
			t.Errorf("schedule %d (%T): no arrivals", k, s)
			continue
		}
		for i, a := range a1 {
			if a.At >= horizon {
				t.Errorf("schedule %d (%T): arrival %d at %d outside horizon %d", k, s, i, a.At, horizon)
			}
			if i > 0 && a.At < a1[i-1].At {
				t.Errorf("schedule %d (%T): arrival %d at %d before predecessor %d", k, s, i, a.At, a1[i-1].At)
			}
		}
	}
}

func TestConstantScheduleShape(t *testing.T) {
	got := NewConstant(10).Arrivals(100)
	if len(got) != 10 {
		t.Fatalf("arrivals = %d, want 10", len(got))
	}
	for i, a := range got {
		if a.At != uint64(i*10) {
			t.Fatalf("arrival %d at %d, want %d", i, a.At, i*10)
		}
	}
	// Zero interval falls back to the default instead of looping.
	if n := len(NewConstant(0).Arrivals(100_000)); n != 10 {
		t.Fatalf("default-interval arrivals = %d", n)
	}
}

func TestStepRampShape(t *testing.T) {
	s := NewStepRamp(2, 2, 100)
	got := s.Arrivals(300)
	// Slot 0: 2 arrivals, slot 1: 4, slot 2: 6.
	perSlot := map[int]int{}
	for _, a := range got {
		perSlot[int(a.At/100)]++
	}
	want := map[int]int{0: 2, 1: 4, 2: 6}
	if !reflect.DeepEqual(perSlot, want) {
		t.Fatalf("per-slot counts = %v, want %v", perSlot, want)
	}
	// A negative step ramps down and bottoms out at silence without
	// underflowing.
	down := NewStepRamp(2, -1, 100).Arrivals(500)
	perSlot = map[int]int{}
	for _, a := range down {
		perSlot[int(a.At/100)]++
	}
	if perSlot[0] != 2 || perSlot[1] != 1 || perSlot[2] != 0 || perSlot[3] != 0 {
		t.Fatalf("ramp-down per-slot = %v", perSlot)
	}
}

func TestPoissonSeedsAndRate(t *testing.T) {
	const horizon, mean = 1_000_000, 10_000
	a := NewPoisson(mean, 7).Arrivals(horizon)
	b := NewPoisson(mean, 8).Arrivals(horizon)
	if reflect.DeepEqual(a, b) {
		t.Fatal("different seeds produced identical sequences")
	}
	// The realized rate should be in the ballpark of horizon/mean
	// (loose 2x band — this is a smoke check, not a statistics test).
	want := horizon / mean
	if len(a) < want/2 || len(a) > want*2 {
		t.Fatalf("arrivals = %d, want within [%d, %d]", len(a), want/2, want*2)
	}
}

func TestParseTraceCSV(t *testing.T) {
	ts, err := ParseTraceCSV("invocations,payload\n2,GET a\n0\n3,PING", 1_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts.slots) != 3 || ts.SlotTicks != 1_000 {
		t.Fatalf("slots = %d, slot ticks = %d", len(ts.slots), ts.SlotTicks)
	}
	got := ts.Arrivals(10_000)
	if len(got) != 5 {
		t.Fatalf("arrivals = %d, want 5", len(got))
	}
	for _, a := range got[:2] {
		if a.Payload != "GET a" || a.At >= 1_000 {
			t.Fatalf("slot-0 arrival = %+v", a)
		}
	}
	for _, a := range got[2:] {
		if a.Payload != "PING" || a.At < 2_000 || a.At >= 3_000 {
			t.Fatalf("slot-2 arrival = %+v", a)
		}
	}
	// The horizon clips mid-trace.
	if n := len(ts.Arrivals(1_000)); n != 2 {
		t.Fatalf("clipped arrivals = %d, want 2", n)
	}

	for _, bad := range []string{"", "# only comments\n", "2\nnope,x", "-1"} {
		if _, err := ParseTraceCSV(bad, 0); !errors.Is(err, ErrBadTrace) {
			t.Errorf("ParseTraceCSV(%q) err = %v, want ErrBadTrace", bad, err)
		}
	}
	// Error messages carry the offending line.
	_, err = ParseTraceCSV("2\nnope,x", 0)
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("err = %v, want line number", err)
	}
}
