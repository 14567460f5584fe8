package main

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"
)

func TestPercentileRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{
		{1, 50, 1}, {1, 99, 1}, {2, 50, 1}, {10, 50, 5}, {10, 90, 9},
		{11, 90, 10}, {100, 99, 99}, {101, 99, 100}, {1000, 99, 990},
	} {
		if got := rank(c.n, c.p); got != c.want {
			t.Errorf("rank(%d, %v) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(xs, 50); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if got := percentile(xs, 100); got != 5 {
		t.Errorf("p100 = %v, want 5", got)
	}
	if xs[0] != 5 {
		t.Errorf("percentile sorted its input: %v", xs)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty p50 = %v, want 0", got)
	}
}

func TestTailNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{999, 99, false}, {1000, 99, true}, {99, 90, false}, {100, 90, true},
		{19, 50, false}, {20, 50, true}, {0, 50, false},
	} {
		if got := tailOK(c.n, c.p); got != c.want {
			t.Errorf("tailOK(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestCPUClockMonotonicAndAdvancesUnderLoad(t *testing.T) {
	checkCPUClock(t, cpuNow)
}

// The thread clock is read on the thread it times, so the test
// goroutine stays on one OS thread, as main's does.
func TestThreadClockMonotonicAndAdvancesUnderLoad(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	checkCPUClock(t, threadNow)
}

// checkCPUClock checks that now never goes back, advances while the
// caller spins and stands nearly still while it sleeps.
func checkCPUClock(t *testing.T, now func() time.Duration) {
	t.Helper()
	prev := now()
	for i := 0; i < 1000; i++ {
		n := now()
		if n < prev {
			t.Fatalf("CPU clock went back: %v after %v", n, prev)
		}
		prev = n
	}
	start, wall := now(), time.Now()
	x := 0
	for time.Since(wall) < 50*time.Millisecond {
		x++
	}
	if used := now() - start; used < 20*time.Millisecond {
		t.Errorf("50ms of spinning advanced the CPU clock by only %v (%d loops)", used, x)
	}
	start = now()
	time.Sleep(50 * time.Millisecond)
	if used := now() - start; used > 25*time.Millisecond {
		t.Errorf("sleeping 50ms advanced the CPU clock by %v", used)
	}
}

func TestFailedShare(t *testing.T) {
	var a tally
	if got := a.failedShare(); got != 0 {
		t.Errorf("empty share = %v, want 0", got)
	}
	a.check(true)
	a.check(false)
	a.check(true)
	var b tally
	b.check(true)
	a.add(b)
	if a.attempted != 4 || a.failed != 1 || a.failedShare() != 0.25 {
		t.Errorf("tally = %+v share %v, want 4 attempted, 1 failed, 0.25", a, a.failedShare())
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	r := &recorder{driver: "t"}
	root := r.add("root", 0, 0, 100)
	r.add("a", root, 10, 40)
	r.add("b", root, 30, 60)  // overlaps a: the union is [10, 60)
	r.add("c", root, 90, 120) // clipped to the parent's end
	spans := r.finish()
	if got := spans[root-1].Self; got != 40 {
		t.Errorf("root self = %d, want 40", got)
	}
	if got := spans[1].Self; got != 30 {
		t.Errorf("leaf self = %d, want its duration 30", got)
	}
}

func TestKVModelIncrParsesStaleDigits(t *testing.T) {
	var m kvModel
	for _, c := range []struct{ req, want string }{
		{"GET a\n", "$-1\n"},
		{"INCR a\n", ":1\n"},
		{"SET a 123456\n", "+OK\n"},
		{"SET a xy\n", "+OK\n"},
		{"GET a\n", "xy\n"},
		{"INCR a\n", ":1\n"}, // "xy3456": no leading digit
		{"SET a 9\n", "+OK\n"},
		{"INCR a\n", ":10\n"}, // "9y3456" parses as 9
		{"SET a 5\n", "+OK\n"},
		{"INCR a\n", ":503457\n"}, // "503456": the stale tail is digits now
		{"GET a\n", "503457\n"},
		{"EXISTS a\n", ":1\n"},
		{"DEL a\n", "+OK\n"},
		{"EXISTS a\n", ":0\n"},
		{"PING\n", "+PONG\n"},
	} {
		if got := m.apply(c.req); got != c.want {
			t.Fatalf("%q -> %q, want %q", c.req, got, c.want)
		}
	}
}

// TestDeclaredMetricsMatchBenchmarkJSON keeps the metric tables the
// benchmark reports in step with BENCHMARK.json.
func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []declared, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics here, %d in BENCHMARK.json", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: %v here, %v in BENCHMARK.json", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", endToEndMetrics, spec.EndToEnd)
	same("per_layer", perLayerMetrics, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads here, %d in BENCHMARK.json", len(workloads), len(spec.Workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
}

// failingDriver is a unit that fails its check every time and so never
// takes the samples its progress waits for.
type failingDriver struct{ chk tally }

func (d *failingDriver) reset()                             {}
func (d *failingDriver) warm()                              {}
func (d *failingDriver) step()                              { d.chk.check(false) }
func (d *failingDriver) progress() float64                  { return 0 }
func (d *failingDriver) trace(*recorder)                    {}
func (d *failingDriver) endToEnd() map[string]float64       { return nil }
func (d *failingDriver) perLayer([]span) map[string]float64 { return nil }
func (d *failingDriver) checks() tally                      { return d.chk }

func TestPassEndsWhenEveryUnitFails(t *testing.T) {
	drivers := map[string]driver{"p": &failingDriver{}, "c": &failingDriver{}}
	done := make(chan struct{})
	go func() {
		pass(drivers, workload{primary: "p", companions: []string{"c"}}, 20*time.Millisecond)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("pass did not end with every unit failing")
	}
	if got := drivers["p"].checks().failed; got == 0 {
		t.Errorf("primary recorded no failures")
	}
}
