package obs

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRingBounded: the ring never holds more than its capacity, drops
// are counted, and the survivors are the newest events in order.
func TestObserverRingBounded(t *testing.T) {
	o := New(4)
	for i := 0; i < 10; i++ {
		o.Point("p", int64(i))
	}
	if o.Len() != 4 || o.bound != 4 {
		t.Fatalf("len=%d cap=%d, want 4/4", o.Len(), o.bound)
	}
	if o.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", o.Dropped())
	}
	evs := o.Events()
	for i, ev := range evs {
		if want := int64(6 + i); ev.N != want || ev.Seq != uint64(want) {
			t.Fatalf("event %d = %+v, want N=Seq=%d", i, ev, want)
		}
	}
}

// TestObserverRingGrowsOnDemand: the backing array starts empty, grows
// by clamped doubling and never past the bound — also when the bound is
// not a power of two or is below the first growth step — and once the
// bound is reached, wrap, drops and Events() order are those of a ring
// allocated at full size.
func TestObserverRingGrowsOnDemand(t *testing.T) {
	for _, bound := range []int{3, 8, 100} {
		o := New(bound)
		if cap(o.ring) != 0 || o.bound != bound {
			t.Fatalf("bound %d: after New cap(ring)=%d bound=%d, want 0/%d", bound, cap(o.ring), o.bound, bound)
		}
		total := 2*bound + 5
		for i := 0; i < total; i++ {
			o.Point("p", int64(i))
			if c := cap(o.ring); c > bound || c < o.Len() {
				t.Fatalf("bound %d, event %d: cap(ring)=%d len=%d", bound, i, c, o.Len())
			}
		}
		if cap(o.ring) != bound || o.Len() != bound || o.Dropped() != uint64(total-bound) {
			t.Fatalf("bound %d: cap(ring)=%d len=%d dropped=%d", bound, cap(o.ring), o.Len(), o.Dropped())
		}
		for i, ev := range o.Events() {
			if want := int64(total - bound + i); ev.N != want || ev.Seq != uint64(want) {
				t.Fatalf("bound %d: event %d = %+v, want N=Seq=%d", bound, i, ev, want)
			}
		}
	}
	if o := New(0); cap(o.ring) != 0 || o.bound != DefaultCapacity {
		t.Fatalf("New(0): cap(ring)=%d bound=%d", cap(o.ring), o.bound)
	}
	// Below the bound the ring holds exactly what was emitted, in order.
	o := New(DefaultCapacity)
	o.Point("a", 1)
	o.Point("b", 2)
	if evs := o.Events(); len(evs) != 2 || evs[0].Name != "a" || evs[1].Name != "b" || cap(o.ring) > 8 {
		t.Fatalf("events=%+v cap(ring)=%d", evs, cap(o.ring))
	}
}

// TestClockStamping: events carry the installed virtual clock and the
// (stubbed) wall clock.
func TestClockStamping(t *testing.T) {
	o := New(0)
	var ticks uint64
	o.SetClock(func() uint64 { return ticks })
	o.SetWallClock(func() time.Time { return time.Unix(7, 42) })
	ticks = 123
	o.Point("a", 0)
	ticks = 456
	o.Point("b", 0)
	evs := o.Events()
	if evs[0].VClock != 123 || evs[1].VClock != 456 {
		t.Fatalf("vclocks = %d, %d", evs[0].VClock, evs[1].VClock)
	}
	if evs[0].WallNS != time.Unix(7, 42).UnixNano() {
		t.Fatalf("wall = %d", evs[0].WallNS)
	}
}

// Histogram returns a snapshot of one histogram and whether it exists.
func (o *Observer) Histogram(name string) (Hist, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	h, ok := o.hists[name]
	if !ok {
		return Hist{}, false
	}
	return *h, true
}

// TestCountersGaugesHistograms exercises the metric registries.
func TestCountersGaugesHistograms(t *testing.T) {
	o := New(0)
	o.Add("c", 2)
	if got := o.Add("c", 3); got != 5 || o.Counter("c") != 5 {
		t.Fatalf("counter = %d / %d", got, o.Counter("c"))
	}
	o.SetGauge("g", -7)
	if g := o.Gauges()["g"]; g != -7 {
		t.Fatalf("gauge = %d", g)
	}
	for _, v := range []int64{1, 2, 3, 1000} {
		o.Observe("h", v)
	}
	h, ok := o.Histogram("h")
	if !ok || h.Count != 4 || h.Sum != 1006 || h.Min != 1 || h.Max != 1000 {
		t.Fatalf("hist = %+v ok=%v", h, ok)
	}
	if _, ok := o.Histogram("absent"); ok {
		t.Fatal("phantom histogram")
	}
}

// TestPhaseSpansFeedHistogram: PhaseEnd closes the span opened by
// PhaseStart and records the duration in phase.<name>.
func TestPhaseSpansFeedHistogram(t *testing.T) {
	o := New(0)
	now := time.Unix(0, 0)
	o.SetWallClock(func() time.Time { return now })
	o.PhaseStart("checkpoint", 1)
	now = now.Add(5 * time.Millisecond)
	o.PhaseEnd("checkpoint", 1, nil)
	h, ok := o.Histogram("phase.checkpoint")
	if !ok || h.Count != 1 || h.Sum != int64(5*time.Millisecond) {
		t.Fatalf("hist = %+v ok=%v", h, ok)
	}
}

// TestJSONLRoundTripAndSummarize: export → parse → summarize
// reconstructs the phase timeline, including a failed attempt and a
// rollback.
func TestJSONLRoundTripAndSummarize(t *testing.T) {
	o := New(0)
	o.SetWallClock(func() time.Time { return time.Unix(1, 0) })
	o.PhaseStart("checkpoint", 0)
	o.PhaseEnd("checkpoint", 0, nil)
	o.PhaseStart("restore", 1)
	o.Fault("criu.restore.proc", 1)
	o.PhaseEnd("restore", 1, errors.New("injected"))
	o.PhaseStart("rollback", 1)
	o.PhaseEnd("rollback", 1, nil)
	o.PhaseStart("restore", 2)
	o.PhaseEnd("restore", 2, nil)
	o.Point("commit", 1)

	var buf bytes.Buffer
	if err := o.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	evs, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != o.Len() {
		t.Fatalf("parsed %d events, ring holds %d", len(evs), o.Len())
	}
	sum := Summarize(evs)
	byName := map[string]PhaseStat{}
	for _, ps := range sum.Phases {
		byName[ps.Name] = ps
	}
	if ps := byName["restore"]; ps.Count != 2 || ps.Errors != 1 {
		t.Fatalf("restore stat = %+v", ps)
	}
	if ps := byName["rollback"]; ps.Count != 1 || ps.Errors != 0 {
		t.Fatalf("rollback stat = %+v", ps)
	}
	if sum.Faults["criu.restore.proc"] != 1 {
		t.Fatalf("faults = %v", sum.Faults)
	}
	if sum.Points["commit"] != 1 {
		t.Fatalf("points = %v", sum.Points)
	}
	// First-start order: checkpoint before restore before rollback.
	if sum.Phases[0].Name != "checkpoint" || sum.Phases[1].Name != "restore" {
		t.Fatalf("phase order = %v", sum.Phases)
	}
}

// TestSummaryText: the human-readable export mentions phases, faults
// and counters.
func TestSummaryText(t *testing.T) {
	o := New(0)
	o.PhaseStart("edit", 1)
	o.PhaseEnd("edit", 1, nil)
	o.Fault("core.health", 2)
	o.Add("kernel.syscalls", 9)
	s := o.Summary()
	for _, want := range []string{"edit", "core.health×1", "kernel.syscalls=9"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

// TestConcurrentEmit: racing emitters never corrupt the ring (run
// under -race by the chaos gate).
func TestObserverConcurrentEmit(t *testing.T) {
	o := New(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				o.Point("p", int64(i))
				o.Add("c", 1)
			}
		}()
	}
	wg.Wait()
	if o.Len() != 64 || o.Counter("c") != 800 || o.Seq() != 800 {
		t.Fatalf("len=%d c=%d seq=%d", o.Len(), o.Counter("c"), o.Seq())
	}
}

// TestSummarizeDanglingSpan: a start without an end counts as an
// error (the process died mid-phase).
func TestSummarizeDanglingSpan(t *testing.T) {
	sum := Summarize([]Event{{Kind: KindPhaseStart, Name: "restore", Attempt: 1}})
	if len(sum.Phases) != 1 || sum.Phases[0].Errors != 1 || sum.Phases[0].Count != 0 {
		t.Fatalf("summary = %+v", sum.Phases)
	}
}
