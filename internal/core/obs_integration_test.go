package core

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"github.com/dynacut/dynacut/internal/apps/webserv"
	"github.com/dynacut/dynacut/internal/coverage"
	"github.com/dynacut/dynacut/internal/faultinject"
	"github.com/dynacut/dynacut/internal/kernel"
	"github.com/dynacut/dynacut/internal/obs"
)

// TestSplitPageCoverageOverlap: overlapping blocks on one page must
// not be double-counted into a "fully covered" verdict (regression:
// raw byte-length summation declared partially-covered pages full and
// unmapped live code).
func TestSplitPageCoverageOverlap(t *testing.T) {
	const ps = kernel.PageSize
	base := uint64(100 * ps)

	// Block A covers [base+512, base+ps+512) — it straddles into the
	// next page; block B re-covers [base+512, base+2048), a strict
	// subset of A's share of the first page. Raw sums: page 100 gets
	// (ps-512)+1536 = 5120 >= ps, wrongly "full"; the union is only
	// 3584 bytes.
	blocks := []coverage.AbsBlock{
		{Addr: base + 512, Size: ps},
		{Addr: base + 512, Size: 1536},
	}
	full, partial := splitPageCoverage(blocks)
	if len(full) != 0 {
		t.Fatalf("overlapping partial coverage reported full pages: %+v", full)
	}
	if len(partial) == 0 {
		t.Fatal("no partial blocks returned")
	}

	// Positive control: duplicated and adjacent blocks whose union does
	// cover a whole page must still unmap it.
	blocks = []coverage.AbsBlock{
		{Addr: base, Size: ps / 2},
		{Addr: base, Size: ps / 2}, // duplicate
		{Addr: base + ps/2, Size: ps / 2},
	}
	full, partial = splitPageCoverage(blocks)
	if len(full) != 1 || full[0].start != base || full[0].end != base+ps {
		t.Fatalf("fully covered page not detected: full=%+v partial=%+v", full, partial)
	}
	if len(partial) != 0 {
		t.Fatalf("leftover partial blocks on a fully covered page: %+v", partial)
	}
}

// TestVerifierFlogOverflowSurfaced: when the in-guest false-removal
// log overflows its 256-entry capacity, the handler must stop storing
// (not scribble past the buffer and die) while still counting, and
// the host API must surface the truncation (regression: the store was
// unbounded and the host read silently capped at a hardcoded 256).
func TestVerifierFlogOverflowSurfaced(t *testing.T) {
	tb := newTestbed(t, webserv.Config{Name: "lighttpd", Port: 9170})
	blocks := tb.profileFeatures(t,
		[]string{"GET /\n", "HEAD /\n"},
		[]string{"PUT /f x\n", "POST /\n"})
	o := obs.New(0)
	c, err := New(tb.m, tb.currentRoot(t), Options{
		RedirectTo: tb.errPathAddr(t),
		Verifier:   true,
		Observer:   o,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.DisableBlocks("suspect", blocks, PolicyBlockEntry); err != nil {
		t.Fatal(err)
	}

	// Simulate a validation run that already overflowed the log: push
	// the in-guest counter far past the flog capacity, then trap. The
	// old handler computed flog + 8*counter and stored into unmapped
	// memory — a double fault that killed the guest.
	p, err := tb.m.Process(c.PID())
	if err != nil {
		t.Fatal(err)
	}
	const seenBefore = 1 << 20
	if err := p.Mem().WriteU64(c.handler.FLogLen, seenBefore); err != nil {
		t.Fatal(err)
	}
	if got := tb.request(t, "POST /\n"); !strings.Contains(got, "200") {
		t.Fatalf("POST with overflowed flog -> %q, want self-healed 200", got)
	}

	addrs, seen, err := c.FalseRemovalsSeen()
	if err != nil {
		t.Fatal(err)
	}
	if seen <= seenBefore {
		t.Fatalf("seen = %d, want > %d (trap not counted)", seen, seenBefore)
	}
	if len(addrs) != maxVerifierEntries {
		t.Fatalf("len(addrs) = %d, want capacity %d", len(addrs), maxVerifierEntries)
	}
	// The lossy wrapper still works and agrees with the capped read.
	legacy, err := c.FalseRemovals()
	if err != nil || len(legacy) != len(addrs) {
		t.Fatalf("FalseRemovals -> %d addrs, %v", len(legacy), err)
	}
	// The truncation is visible in the trace.
	truncated := false
	for _, ev := range o.Events() {
		if ev.Kind == obs.KindPoint && ev.Name == "verifier.flog.truncated" && ev.N > 0 {
			truncated = true
		}
	}
	if !truncated {
		t.Fatal("no verifier.flog.truncated event emitted")
	}
	// And the guest is still serving.
	tb.assertServing(t)
}

// TestChaosObserverEventsMatchInjections sweeps 20 seeded fault
// cycles across the armed hook sites with one shared observer
// attached: every injected fault must land in the trace as a matching
// fault event, and the ring must stay bounded for the whole sweep.
func TestChaosObserverEventsMatchInjections(t *testing.T) {
	tb := newTestbed(t, webserv.Config{Name: "lighttpd", Port: 9171})
	blocks := tb.profileFeatures(t, wantedReqs, undesiredReqs)
	if len(blocks) == 0 {
		t.Fatal("no feature blocks identified")
	}
	errPath := tb.errPathAddr(t)

	arms := []func(in *faultinject.Injector){
		func(in *faultinject.Injector) { in.FailAt(faultinject.SiteDumpProc, 1) },
		func(in *faultinject.Injector) { in.FailAt(faultinject.SiteDumpPageMap, 1) },
		func(in *faultinject.Injector) { in.FailAt(faultinject.SiteEditWrite, 1) },
		func(in *faultinject.Injector) { in.FailAt(faultinject.SiteRestoreProc, 1) },
		func(in *faultinject.Injector) { in.FailAt(faultinject.SiteRestoreVMA, 1) },
		func(in *faultinject.Injector) { in.FailAt(faultinject.SiteRestorePages, 1) },
		func(in *faultinject.Injector) { in.FailAt(faultinject.SiteRestoreFiles, 1) },
		func(in *faultinject.Injector) { in.FailAt(faultinject.SiteHealth, 1) },
	}

	// A deliberately small ring: the sweep emits far more events than
	// this, so staying within Cap proves the buffer is bounded.
	const ring = 128
	o := obs.New(ring)

	for seed := int64(1); seed <= 20; seed++ {
		prevSeq := o.Seq()
		in := faultinject.New(seed)
		arms[int(seed)%len(arms)](in)
		tb.m.SetFaultHook(in)
		c, err := New(tb.m, tb.currentRoot(t), Options{
			RedirectTo: errPath,
			Observer:   o,
		})
		if err != nil {
			t.Fatal(err)
		}
		_, err = c.DisableBlocks("webdav-write", blocks, PolicyBlockEntry)
		tb.m.SetFaultHook(nil)
		if err == nil {
			t.Fatalf("seed %d: injected fault did not surface", seed)
		}

		// Every injector decision that failed has a matching fault
		// event in the trace, in order.
		var wantSites []string
		for _, fe := range in.Events() {
			if fe.Fail {
				wantSites = append(wantSites, fe.Site)
			}
		}
		if len(wantSites) == 0 {
			t.Fatalf("seed %d: no fault actually fired", seed)
		}
		var gotSites []string
		for _, ev := range o.Events() {
			if ev.Kind == obs.KindFault && ev.Seq >= prevSeq {
				gotSites = append(gotSites, ev.Name)
			}
		}
		if len(gotSites) != len(wantSites) {
			t.Fatalf("seed %d: %d fault events for %d injections (%v vs %v)",
				seed, len(gotSites), len(wantSites), gotSites, wantSites)
		}
		for i := range wantSites {
			if gotSites[i] != wantSites[i] {
				t.Fatalf("seed %d: fault event %d = %q, want %q", seed, i, gotSites[i], wantSites[i])
			}
		}
		if o.Len() > ring {
			t.Fatalf("seed %d: ring grew past capacity: %d > %d", seed, o.Len(), ring)
		}
		tb.assertServing(t)
	}
	if o.Dropped() == 0 {
		t.Error("sweep never overflowed the 128-slot ring; boundedness unexercised")
	}
}

// TestObserverTraceReconstructsTimeline is the acceptance test for
// the tracing pipeline: a rewrite under transient fault injection
// produces a JSONL trace that reconstructs the full phase timeline —
// failed restore, rollback, retry, commit — and two identical runs
// produce byte-identical traces thanks to the virtual clock (wall
// clock stubbed).
func TestObserverTraceReconstructsTimeline(t *testing.T) {
	run := func() (string, *obs.Observer) {
		tb := newTestbed(t, webserv.Config{Name: "lighttpd", Port: 9172})
		blocks := tb.profileFeatures(t, wantedReqs, undesiredReqs)
		o := obs.New(0)
		o.SetWallClock(func() time.Time { return time.Unix(0, 0) })
		in := faultinject.New(42)
		in.FailTransient(faultinject.PrefixRestore, 1, 1)
		tb.m.SetFaultHook(in)
		defer tb.m.SetFaultHook(nil)
		c, err := New(tb.m, tb.currentRoot(t), Options{
			RedirectTo:  tb.errPathAddr(t),
			MaxAttempts: 2,
			Observer:    o,
		})
		if err != nil {
			t.Fatal(err)
		}
		stats, err := c.DisableBlocks("webdav-write", blocks, PolicyBlockEntry)
		if err != nil {
			t.Fatalf("transient fault not rescued: %v", err)
		}
		if stats.Attempts != 2 || stats.RolledBack {
			t.Fatalf("stats = %+v, want Attempts=2 RolledBack=false", stats)
		}
		// Post-rewrite traffic: the disabled feature traps and redirects,
		// feeding the kernel-side counters (ticks, syscalls, traps). It
		// emits no events, so the JSONL trace stays deterministic.
		if got := tb.request(t, "PUT /f data\n"); !strings.Contains(got, "403") {
			t.Fatalf("PUT after commit -> %q, want 403", got)
		}
		var buf bytes.Buffer
		if err := o.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String(), o
	}

	trace1, o := run()
	trace2, _ := run()
	if trace1 != trace2 {
		t.Fatal("two identical runs produced different JSONL traces")
	}

	events, err := obs.ReadJSONL(strings.NewReader(trace1))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("empty trace")
	}

	// Virtual-clock timestamps are monotonic non-decreasing.
	for i := 1; i < len(events); i++ {
		if events[i].VClock < events[i-1].VClock {
			t.Fatalf("vclock went backwards at seq %d: %d -> %d",
				events[i].Seq, events[i-1].VClock, events[i].VClock)
		}
	}

	// The timeline: restore fails on attempt 1 (with the fault visible
	// between its start and end), rollback runs clean, attempt 2
	// restores, passes health, and commits.
	find := func(kind obs.Kind, name string, attempt int) *obs.Event {
		for i := range events {
			ev := &events[i]
			if ev.Kind == kind && ev.Name == name && ev.Attempt == attempt {
				return ev
			}
		}
		return nil
	}
	for _, name := range []string{"checkpoint", "validate"} {
		if find(obs.KindPhaseStart, name, 0) == nil {
			t.Errorf("missing pre-loop phase %q", name)
		}
	}
	for attempt := 1; attempt <= 2; attempt++ {
		for _, name := range []string{"edit", "validate", "kill", "restore"} {
			if find(obs.KindPhaseStart, name, attempt) == nil {
				t.Errorf("missing phase %q attempt %d", name, attempt)
			}
		}
	}
	r1 := find(obs.KindPhaseEnd, "restore", 1)
	if r1 == nil || r1.Err == "" {
		t.Fatalf("restore attempt 1 end = %+v, want failed", r1)
	}
	r2 := find(obs.KindPhaseEnd, "restore", 2)
	if r2 == nil || r2.Err != "" {
		t.Fatalf("restore attempt 2 end = %+v, want success", r2)
	}
	rb := find(obs.KindPhaseEnd, "rollback", 1)
	if rb == nil || rb.Err != "" {
		t.Fatalf("rollback attempt 1 end = %+v, want clean", rb)
	}
	var fault *obs.Event
	for i := range events {
		if events[i].Kind == obs.KindFault {
			fault = &events[i]
		}
	}
	if fault == nil || !strings.HasPrefix(fault.Name, faultinject.PrefixRestore) {
		t.Fatalf("fault event = %+v, want a criu.restore.* site", fault)
	}
	if start := find(obs.KindPhaseStart, "restore", 1); fault.Seq < start.Seq || fault.Seq > r1.Seq {
		t.Errorf("fault (seq %d) outside restore attempt 1 span [%d, %d]",
			fault.Seq, start.Seq, r1.Seq)
	}
	commit := find(obs.KindPoint, "rewrite.commit", 0)
	if commit == nil || commit.N != 2 {
		t.Fatalf("commit point = %+v, want N=2", commit)
	}
	if h := find(obs.KindPhaseEnd, "health", 2); h == nil || h.Err != "" {
		t.Fatalf("health attempt 2 end = %+v, want clean", h)
	}

	// Summarize agrees: restore ran twice with one failure, nothing
	// dangling, and the injected fault is tallied.
	sum := obs.Summarize(events)
	var restoreStat *obs.PhaseStat
	for i := range sum.Phases {
		if sum.Phases[i].Name == "restore" {
			restoreStat = &sum.Phases[i]
		}
	}
	if restoreStat == nil || restoreStat.Count != 2 || restoreStat.Errors != 1 {
		t.Fatalf("restore summary = %+v, want Count=2 Errors=1", restoreStat)
	}
	if sum.Faults[fault.Name] == 0 {
		t.Errorf("fault site %q missing from summary: %v", fault.Name, sum.Faults)
	}

	// Metrics side: the machine fed the observer, and the commit and
	// rollback counters reflect the retry.
	if o.Counter("kernel.ticks") == 0 || o.Counter("kernel.syscalls") == 0 {
		t.Error("kernel metrics not collected")
	}
	if o.Counter("kernel.traps") == 0 {
		t.Error("redirected PUT produced no trap count")
	}
	if o.Counter("criu.dumps") == 0 || o.Counter("criu.restores") == 0 {
		t.Error("criu metrics not collected")
	}
	if o.Counter("core.commits") != 1 || o.Counter("core.rollbacks") != 1 {
		t.Errorf("commits=%d rollbacks=%d, want 1/1",
			o.Counter("core.commits"), o.Counter("core.rollbacks"))
	}
	if o.Counter("faults.injected") != 1 {
		t.Errorf("faults.injected = %d, want 1", o.Counter("faults.injected"))
	}
}
