package loadgen

import (
	"errors"
	"testing"
	"testing/quick"

	"github.com/dynacut/dynacut/internal/apps/kvstore"
	"github.com/dynacut/dynacut/internal/asm"
	"github.com/dynacut/dynacut/internal/delf/link"
	"github.com/dynacut/dynacut/internal/kernel"
)

func bootKV(t *testing.T) (*kernel.Machine, uint16) {
	t.Helper()
	app, err := kvstore.Build(kvstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	m := kernel.NewMachine()
	if _, err := m.Load(app.Exe, app.Libc); err != nil {
		t.Fatal(err)
	}
	nudged := false
	m.SetNudgeFunc(func(pid int, arg uint64) { nudged = true })
	if !m.RunUntil(func() bool { return nudged }, 10_000_000) {
		t.Fatal("kvstore boot failed")
	}
	return m, app.Config.Port
}

func TestMixWeightedSchedule(t *testing.T) {
	m := NewMix(
		Request{Payload: "A", Weight: 3},
		Request{Payload: "B", Weight: 1},
	)
	counts := map[string]int{}
	for i := 0; i < 40; i++ {
		counts[m.Next()]++
	}
	if counts["A"] != 30 || counts["B"] != 10 {
		t.Fatalf("schedule = %v", counts)
	}
	// Zero/negative weights default to 1.
	m2 := NewMix(Request{Payload: "X"}, Request{Payload: "Y", Weight: -5})
	seen := map[string]bool{}
	for i := 0; i < 4; i++ {
		seen[m2.Next()] = true
	}
	if !seen["X"] || !seen["Y"] {
		t.Fatalf("defaults = %v", seen)
	}
	var empty Mix
	if empty.Next() != "" {
		t.Fatal("empty mix returned a payload")
	}
}

func TestHistogramPercentiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Add(uint64(i))
	}
	if got := h.Percentile(50); got != 50 {
		t.Errorf("p50 = %d", got)
	}
	if got := h.Percentile(99); got != 99 {
		t.Errorf("p99 = %d", got)
	}
	if got := h.Percentile(100); got != 100 {
		t.Errorf("p100 = %d", got)
	}
	if h.Mean() != 50.5 {
		t.Errorf("mean = %f", h.Mean())
	}
	if h.Count() != 100 {
		t.Errorf("count = %d", h.Count())
	}
	var empty Histogram
	if empty.Percentile(50) != 0 || empty.Mean() != 0 {
		t.Error("empty histogram nonzero")
	}
	if h.Percentile(0) != 0 || h.Percentile(101) != 0 {
		t.Error("out-of-range percentile accepted")
	}
}

// Property: percentiles are monotone in p and bounded by min/max.
func TestQuickHistogramMonotone(t *testing.T) {
	f := func(vals []uint16) bool {
		if len(vals) == 0 {
			return true
		}
		var h Histogram
		var lo, hi uint64 = 1 << 62, 0
		for _, v := range vals {
			h.Add(uint64(v))
			if uint64(v) < lo {
				lo = uint64(v)
			}
			if uint64(v) > hi {
				hi = uint64(v)
			}
		}
		prev := uint64(0)
		for _, p := range []float64{1, 25, 50, 75, 90, 99, 100} {
			q := h.Percentile(p)
			if q < prev || q < lo && p > 1 || q > hi {
				return false
			}
			prev = q
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDriverAgainstKVStore(t *testing.T) {
	m, port := bootKV(t)
	d := &Driver{
		Machine: m,
		Port:    port,
		Mix: NewMix(
			Request{Payload: "GET a\n", Weight: 8},
			Request{Payload: "PING\n", Weight: 2},
		),
		BucketTicks: 50_000,
	}
	res, err := d.Run(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Buckets) != 6 {
		t.Fatalf("buckets = %d", len(res.Buckets))
	}
	if res.Errors != 0 {
		t.Fatalf("errors = %d: %v", res.Errors, res.Failures)
	}
	if res.Total == 0 || res.Latency.Count() != res.Total {
		t.Fatalf("total = %d, samples = %d", res.Total, res.Latency.Count())
	}
	for _, b := range res.Buckets {
		if b.Responses == 0 {
			t.Errorf("bucket %d empty", b.Index)
		}
	}
	if res.Latency.Percentile(99) == 0 {
		t.Error("no latency data")
	}
	if res.Throughput(0) == 0 || res.Throughput(99) != 0 {
		t.Error("Throughput accessor wrong")
	}
}

func TestDriverHookRuns(t *testing.T) {
	m, port := bootKV(t)
	var hooks []int
	d := &Driver{
		Machine:     m,
		Port:        port,
		Mix:         NewMix(Request{Payload: "PING\n"}),
		BucketTicks: 20_000,
		Hook: func(b int) error {
			hooks = append(hooks, b)
			return nil
		},
	}
	if _, err := d.Run(3); err != nil {
		t.Fatal(err)
	}
	if len(hooks) != 3 || hooks[0] != 0 || hooks[2] != 2 {
		t.Fatalf("hooks = %v", hooks)
	}
	// Hook errors abort the run.
	d.Hook = func(b int) error { return errors.New("boom") }
	if _, err := d.Run(1); err == nil {
		t.Fatal("hook error swallowed")
	}
}

func TestDriverErrorsOnDeadServer(t *testing.T) {
	m, port := bootKV(t)
	for _, p := range m.Processes() {
		if err := m.Kill(p.PID()); err != nil {
			t.Fatal(err)
		}
	}
	d := &Driver{
		Machine: m, Port: port,
		Mix: NewMix(Request{Payload: "PING\n"}),
	}
	res, err := d.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors == 0 {
		t.Fatal("dead server produced no errors")
	}
}

func TestDriverNeedsMix(t *testing.T) {
	m, port := bootKV(t)
	d := &Driver{Machine: m, Port: port}
	if _, err := d.Run(1); !errors.Is(err, ErrNoMix) {
		t.Fatalf("err = %v", err)
	}
}

// TestHistogramPercentileEdges pins the ceiling nearest-rank fix.
// The old truncating formula int(p/100*N)-1 failed exactly these:
// p99 of 50 samples took rank 49 (index 48), and p just above a rank
// boundary rounded down a full rank.
func TestHistogramPercentileEdges(t *testing.T) {
	mk := func(n int) *Histogram {
		var h Histogram
		for i := 1; i <= n; i++ {
			h.Add(uint64(i * 10))
		}
		return &h
	}
	cases := []struct {
		name string
		n    int
		p    float64
		want uint64
	}{
		{"one sample, tiny p", 1, 0.1, 10},
		{"one sample, p50", 1, 50, 10},
		{"one sample, p100", 1, 100, 10},
		{"p99 of 50 takes the max", 50, 99, 500},
		{"p98 of 50 is rank 49", 50, 98, 490},
		{"tiny p is rank 1", 200, 0.1, 10},
		{"p50 of 200 is rank 100", 200, 50, 1000},
		{"p999 of 200 takes the max", 200, 99.9, 2000},
		{"p33.4 of 3 rounds up to rank 2", 3, 33.4, 20},
	}
	for _, tc := range cases {
		if got := mk(tc.n).Percentile(tc.p); got != tc.want {
			t.Errorf("%s: Percentile(%v) of %d samples = %d, want %d",
				tc.name, tc.p, tc.n, got, tc.want)
		}
	}
}

// TestDriverChargesFailedBudget pins the bucket-alignment fix: a
// request that fails instantly (refused dial on a dead server) must be
// charged its full RequestBudget so the virtual clock stays aligned to
// the bucket grid. Pre-fix, the inner loop broke out of the bucket on
// the first error with the clock unmoved, so each bucket recorded one
// error and zero elapsed time.
func TestDriverChargesFailedBudget(t *testing.T) {
	m, port := bootKV(t)
	for _, p := range m.Processes() {
		if err := m.Kill(p.PID()); err != nil {
			t.Fatal(err)
		}
	}
	d := &Driver{
		Machine: m, Port: port,
		Mix:           NewMix(Request{Payload: "PING\n"}),
		BucketTicks:   40_000,
		RequestBudget: 10_000,
	}
	start := m.Clock()
	res, err := d.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	// Budget divides the bucket evenly and failures cost zero guest
	// ticks, so the alignment must be exact.
	if got := m.Clock() - start; got != 80_000 {
		t.Fatalf("clock advanced %d ticks, want exactly 80000", got)
	}
	if res.Errors != 8 || res.Total != 8 {
		t.Fatalf("Errors = %d, Total = %d, want 8/8", res.Errors, res.Total)
	}
	for _, b := range res.Buckets {
		if b.Errors != 4 || b.Offered != 4 || b.Responses != 0 {
			t.Errorf("bucket %d = %+v, want 4 offered, 4 errors", b.Index, b)
		}
	}
}

// TestDriverMidBucketFailureKeepsBucket: when the server dies mid-run,
// every bucket from that point on must keep offering (and charging)
// requests for its whole window instead of abandoning the bucket on
// the first error and letting the next bucket absorb the leftover
// ticks.
func TestDriverMidBucketFailureKeepsBucket(t *testing.T) {
	m, port := bootKV(t)
	d := &Driver{
		Machine: m, Port: port,
		Mix:           NewMix(Request{Payload: "PING\n"}),
		BucketTicks:   40_000,
		RequestBudget: 10_000,
		Hook: func(b int) error {
			if b != 1 {
				return nil
			}
			for _, p := range m.Processes() {
				if err := m.Kill(p.PID()); err != nil {
					return err
				}
			}
			return nil
		},
	}
	start := m.Clock()
	res, err := d.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Buckets[0].Responses == 0 || res.Buckets[0].Errors != 0 {
		t.Fatalf("healthy bucket 0 = %+v", res.Buckets[0])
	}
	// Post-kill buckets: >1 error each (the old break gave exactly 1)
	// and the run's clock still covers all three bucket windows.
	for _, b := range res.Buckets[1:] {
		if b.Errors < 2 {
			t.Errorf("bucket %d errors = %d, want >= 2 (bucket abandoned?)", b.Index, b.Errors)
		}
	}
	if got := m.Clock() - start; got < 3*40_000 {
		t.Fatalf("clock advanced %d ticks, want >= %d", got, 3*40_000)
	}
	offered := 0
	for _, b := range res.Buckets {
		offered += b.Offered
	}
	if offered != res.Total {
		t.Fatalf("sum(Offered) = %d, Total = %d", offered, res.Total)
	}
}

// segmentedSrc is a guest that answers each request with three bytes
// spaced ~36k ticks apart (inside the 50k drain window), then closes
// and loops back to accept. A driver that scores latency at the first
// response byte reports ~1/20th of the true figure and abandons two
// thirds of the body.
const segmentedSrc = `
.text
.global _start
_start:
	mov r0, 4
	syscall
	mov r8, r0
	mov r0, 5
	mov r1, r8
	mov r2, 7171
	syscall
	mov r0, 15
	mov r1, 0
	syscall
accept:
	mov r0, 7
	mov r1, r8
	syscall
	mov r9, r0
	mov r0, 3
	mov r1, r9
	mov r2, =buf
	mov r3, 16
	syscall
	mov r11, 0
seg:
	mov r0, 2
	mov r1, r9
	lea r2, dot
	mov r3, 1
	syscall
	add r11, 1
	cmp r11, 3
	jge done
	mov r10, 0
spin:
	add r10, 1
	cmp r10, 12000
	jl spin
	jmp seg
done:
	mov r0, 8
	mov r1, r9
	syscall
	jmp accept
.rodata
dot: .ascii "."
.bss
buf: .space 16
`

func bootSegmented(t *testing.T) (*kernel.Machine, uint16) {
	t.Helper()
	obj, err := asm.Assemble(segmentedSrc)
	if err != nil {
		t.Fatal(err)
	}
	exe, err := link.Executable("segd", []*asm.Object{obj})
	if err != nil {
		t.Fatal(err)
	}
	m := kernel.NewMachine()
	if _, err := m.Load(exe); err != nil {
		t.Fatal(err)
	}
	nudged := false
	m.SetNudgeFunc(func(pid int, arg uint64) { nudged = true })
	if !m.RunUntil(func() bool { return nudged }, 10_000_000) {
		t.Fatal("segmented guest boot failed")
	}
	return m, 7171
}

// TestDriverLatencyCoversFullResponse pins the TTFB fix: latency must
// be measured to the LAST response byte, with the multi-segment body
// fully drained, not scored at time-to-first-byte and closed with
// unread data. The guest's two ~36k-tick inter-segment gaps put the
// true latency above 70k ticks; the pre-fix driver reported the
// first-byte time (well under 20k).
func TestDriverLatencyCoversFullResponse(t *testing.T) {
	m, port := bootSegmented(t)
	d := &Driver{
		Machine:     m,
		Port:        port,
		Mix:         NewMix(Request{Payload: "ping\n"}),
		BucketTicks: 200_000,
	}
	res, err := d.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("errors = %d: %v", res.Errors, res.Failures)
	}
	if res.Latency.Count() == 0 {
		t.Fatal("no completions")
	}
	for _, lat := range res.Latency.samples {
		if lat < 60_000 {
			t.Fatalf("latency %d < 60000: scored at first byte, not last", lat)
		}
	}
}
