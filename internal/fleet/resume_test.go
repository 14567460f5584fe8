package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/dynacut/dynacut/internal/core"
	"github.com/dynacut/dynacut/internal/faultinject"
)

// resume finishes a rollout whose controller died, from its journal
// bytes: ResumeController, then Run.
func resume(f *Fleet, journal []byte, apply func(r *Replica) (core.Stats, error)) (*RolloutResult, error) {
	c, err := ResumeController(f, journal)
	if err != nil {
		return nil, err
	}
	return c.Run(apply)
}

// countingApply wraps the standard rollout payload with a per-replica
// invocation counter — the instrument behind the acceptance invariant
// "resume never repeats a committed rewrite": across a crash and its
// resume, every replica's payload must run exactly once.
func countingApply(tpl *template, counts []atomic.Int32) func(r *Replica) (core.Stats, error) {
	return func(r *Replica) (core.Stats, error) {
		counts[r.Index].Add(1)
		return r.Cust.DisableBlocks("webdav-write", tpl.blocks, core.PolicyBlockEntry)
	}
}

// TestControllerCrashResumeSkipsCommitted: kill the controller at a
// journal record boundary mid-rollout, resume from the journal bytes,
// and prove the resumed controller finishes the fleet without ever
// re-running a committed replica's rewrite.
func TestControllerCrashResumeSkipsCommitted(t *testing.T) {
	tpl := bootTemplate(t)
	inj := faultinject.New(1)
	// 8 replicas -> 21 records -> 42 crash boundaries; 20 lands midway.
	inj.FailAt(faultinject.SiteFleetControllerCrash, 20)
	f, err := New(tpl.m, tpl.pid, Config{
		Replicas: 8, Workers: 2, CanaryShards: 1, WaveSize: 4,
		Core: coreOpts(tpl), FaultHook: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]atomic.Int32, 8)
	apply := countingApply(tpl, counts)

	c := NewController(f, nil)
	res1, err := c.Run(apply)
	if !errors.Is(err, ErrControllerCrashed) {
		t.Fatalf("armed crash: err = %v, want ErrControllerCrashed", err)
	}
	if res1.Committed() == 8 || res1.Committed() == 0 {
		t.Fatalf("crash landed at the rollout edge (committed=%d); pick a better boundary", res1.Committed())
	}

	c2, err := ResumeController(f, c.Journal().Bytes())
	if err != nil {
		t.Fatal(err)
	}
	res2, err := c2.Run(apply)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Resumed {
		t.Fatal("result does not report the resume")
	}
	if res2.Committed() != 8 {
		t.Fatalf("resumed rollout committed %d/8: %+v", res2.Committed(), res2.Outcomes)
	}
	if res2.SkippedCommitted < res1.Committed() {
		t.Fatalf("resume skipped %d replicas, journal proved at least %d committed",
			res2.SkippedCommitted, res1.Committed())
	}
	for i := range counts {
		if n := counts[i].Load(); n != 1 {
			t.Fatalf("replica %d rewritten %d times across crash+resume, want exactly 1", i, n)
		}
	}
	// The resumed journal is a closed, decodable log: it extends the
	// crashed journal's clean prefix and ends with the done record.
	recs, err := DecodeJournal(c2.Journal().Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if recs[len(recs)-1].Kind != RecDone {
		t.Fatalf("resumed journal ends with %s, want done", recs[len(recs)-1].Kind)
	}
	var sawResume bool
	for _, r := range recs {
		if r.Kind == RecResume {
			sawResume = true
			if int(r.Replica) != res2.SkippedCommitted {
				t.Fatalf("resume record counts %d skips, result says %d", r.Replica, res2.SkippedCommitted)
			}
		}
	}
	if !sawResume {
		t.Fatal("resumed journal has no resume record")
	}
	assertConverged(t, f, res2, dirDisable)
}

// TestControllerTornAppendResume: the fleet.journal.append fault tears
// a frame mid-write and kills the controller; resume must drop the
// torn tail, re-verify the replica whose outcome record died with the
// controller, and still never re-run a committed rewrite.
func TestControllerTornAppendResume(t *testing.T) {
	tpl := bootTemplate(t)
	inj := faultinject.New(2)
	// Appends run start, intents, outcomes, wave summaries; tearing the
	// 7th lands on a mid-rollout outcome record.
	inj.FailAt(faultinject.SiteFleetJournalAppend, 7)
	f, err := New(tpl.m, tpl.pid, Config{
		Replicas: 8, Workers: 2, CanaryShards: 1, WaveSize: 4,
		Core: coreOpts(tpl), FaultHook: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]atomic.Int32, 8)
	apply := countingApply(tpl, counts)

	c := NewController(f, nil)
	if _, err := c.Run(apply); !errors.Is(err, ErrControllerCrashed) {
		t.Fatalf("torn append: err = %v, want ErrControllerCrashed", err)
	}
	data := c.Journal().Bytes()
	if _, err := DecodeJournal(data); err != nil {
		t.Fatalf("torn journal must decode to its clean prefix: %v", err)
	}

	res2, err := resume(f, data, apply)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Committed() != 8 {
		t.Fatalf("resumed rollout committed %d/8", res2.Committed())
	}
	for i := range counts {
		if n := counts[i].Load(); n != 1 {
			t.Fatalf("replica %d rewritten %d times across torn append+resume, want 1", i, n)
		}
	}
	assertConverged(t, f, res2, dirDisable)
}

// TestJournalResumeDeterminism is the byte-determinism acceptance
// test: two identical fleets driven with the same seed and the same
// crash point must journal byte-identical logs — through the crash
// AND through the resume. Virtual clocks, deterministic dispatch and
// content-addressed idents leave nothing wall-clock-shaped to diverge.
func TestJournalResumeDeterminism(t *testing.T) {
	tpl := bootTemplate(t)
	runOnce := func() ([]byte, *RolloutResult, []int32) {
		inj := faultinject.New(5)
		inj.FailAt(faultinject.SiteFleetControllerCrash, 30)
		f, err := New(tpl.m, tpl.pid, Config{
			Replicas: 8, Workers: 2, CanaryShards: 1, WaveSize: 4,
			Core: coreOpts(tpl), FaultHook: inj,
		})
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]atomic.Int32, 8)
		apply := countingApply(tpl, counts)
		c := NewController(f, nil)
		if _, err := c.Run(apply); !errors.Is(err, ErrControllerCrashed) {
			t.Fatalf("armed crash: %v", err)
		}
		crashBytes := c.Journal().Bytes()
		c2, err := ResumeController(f, crashBytes)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c2.Run(apply)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(c2.Journal().Bytes(), crashBytes) {
			t.Fatal("resumed journal does not extend the crashed journal")
		}
		flat := make([]int32, 8)
		for i := range counts {
			flat[i] = counts[i].Load()
		}
		return c2.Journal().Bytes(), res, flat
	}

	j1, res1, n1 := runOnce()
	j2, res2, n2 := runOnce()
	if !bytes.Equal(j1, j2) {
		t.Fatalf("same seed + crash point journaled different bytes: %d vs %d", len(j1), len(j2))
	}
	if res1.Committed() != 8 || res2.Committed() != 8 {
		t.Fatalf("committed %d / %d, want 8 / 8", res1.Committed(), res2.Committed())
	}
	if res1.SkippedCommitted != res2.SkippedCommitted {
		t.Fatalf("skip counts diverged: %d vs %d", res1.SkippedCommitted, res2.SkippedCommitted)
	}
	for i := range n1 {
		if n1[i] != 1 || n2[i] != 1 {
			t.Fatalf("replica %d attempts: %d vs %d, want exactly 1 in both runs", i, n1[i], n2[i])
		}
	}
}

// TestFleetChaosLeaseExpiry: a worker dies mid-lease (seed-varied
// victim); the lease expires on the virtual clock, the step requeues
// with backoff, and the retry commits the replica — the whole fleet
// still converges with exactly one payload run per replica.
func TestFleetChaosLeaseExpiry(t *testing.T) {
	tpl := bootTemplate(t)
	for seed := int64(0); seed < chaosSeeds; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			inj := faultinject.New(seed)
			inj.FailAt(faultinject.SiteFleetLeaseExpire, 1+int(seed)%6)
			f, err := New(tpl.m, tpl.pid, Config{
				Replicas: 6, Workers: 2, CanaryShards: 1, WaveSize: 2,
				Core: coreOpts(tpl), FaultHook: inj,
			})
			if err != nil {
				t.Fatal(err)
			}
			counts := make([]atomic.Int32, 6)
			res, err := f.Rollout(countingApply(tpl, counts))
			if err != nil {
				t.Fatal(err)
			}
			if res.LeaseExpiries != 1 || res.Requeues != 1 {
				t.Fatalf("expiries=%d requeues=%d, want 1/1", res.LeaseExpiries, res.Requeues)
			}
			if res.Committed() != 6 {
				t.Fatalf("committed %d/6 after lease recovery: %+v", res.Committed(), res.Outcomes)
			}
			for i := range counts {
				if n := counts[i].Load(); n != 1 {
					t.Fatalf("replica %d applied %d times (dead lease must not run the payload)", i, n)
				}
			}
			if inj.Injected() == 0 {
				t.Fatal("armed lease fault never fired")
			}
			assertConverged(t, f, res, dirDisable)
		})
	}
}

// TestFleetLeaseBudgetExhausted: every lease on one step dies; after
// RetryBudget expiries the controller fails the step for good instead
// of spinning, and the zero-threshold wave halts the rollout with the
// replica untouched on the old version.
func TestFleetLeaseBudgetExhausted(t *testing.T) {
	tpl := bootTemplate(t)
	inj := faultinject.New(9)
	// Hit 1 is the canary's lease (survives); hits 2-4 kill all three
	// leases of replica 1's step.
	inj.FailTransient(faultinject.SiteFleetLeaseExpire, 2, 3)
	f, err := New(tpl.m, tpl.pid, Config{
		Replicas: 2, Workers: 2, CanaryShards: 1, WaveSize: 1,
		Core: coreOpts(tpl), FaultHook: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]atomic.Int32, 2)
	res, err := f.Rollout(countingApply(tpl, counts))
	if err != nil {
		t.Fatal(err)
	}
	if res.LeaseExpiries != 3 || res.Requeues != 2 {
		t.Fatalf("expiries=%d requeues=%d, want 3/2", res.LeaseExpiries, res.Requeues)
	}
	out := res.Outcomes[1]
	if out.Outcome != OutcomeFailed || !strings.Contains(out.Err.Error(), "retry budget exhausted") {
		t.Fatalf("replica 1 = %v (%v), want failed with exhausted budget", out.Outcome, out.Err)
	}
	if counts[1].Load() != 0 {
		t.Fatal("payload ran on a replica whose every lease died")
	}
	if !res.Halted || res.HaltedWave != 1 {
		t.Fatalf("exhausted step did not halt its zero-threshold wave: %+v", res)
	}
	if res.Outcomes[0].Outcome != OutcomeCommitted {
		t.Fatalf("canary = %v, want committed (its wave was healthy)", res.Outcomes[0].Outcome)
	}
	// The failed step's lanes paid the lease windows and backoff waits.
	if res.FleetTicks == 0 {
		t.Fatal("degenerate makespan")
	}
	assertConverged(t, f, res, dirDisable)
}

// TestFleetChaosControllerCrash is the fleet-scale acceptance sweep:
// 256 replicas, 20 seeds, the controller killed at a seed-varied
// journal record boundary (even seeds) or by a torn journal append
// (odd seeds). Every seed must resume from the journal to a fully
// converged fleet — every replica on the new version or pristine,
// never torn — with zero re-rewrites of committed replicas.
func TestFleetChaosControllerCrash(t *testing.T) {
	tpl := bootTemplate(t)
	const replicas = 256
	for seed := int64(0); seed < chaosSeeds; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			inj := faultinject.New(seed)
			// A full 256-replica rollout consults the crash site ~1060
			// times and the append site ~530 times; the armed hits below
			// stay inside those ranges so the kill always lands.
			if seed%2 == 0 {
				inj.FailAt(faultinject.SiteFleetControllerCrash, 1+int(seed*53)%1000)
			} else {
				inj.FailAt(faultinject.SiteFleetJournalAppend, 1+int(seed*37)%500)
			}
			f, err := New(tpl.m, tpl.pid, Config{
				Replicas: replicas, Workers: 8, CanaryShards: 4, WaveSize: 16,
				Core: coreOpts(tpl), FaultHook: inj,
			})
			if err != nil {
				t.Fatal(err)
			}
			counts := make([]atomic.Int32, replicas)
			apply := countingApply(tpl, counts)

			c := NewController(f, nil)
			res1, err := c.Run(apply)
			if !errors.Is(err, ErrControllerCrashed) {
				t.Fatalf("armed kill never landed: err=%v committed=%d", err, res1.Committed())
			}
			if inj.Injected() == 0 {
				t.Fatal("no fault fired")
			}

			res2, err := resume(f, c.Journal().Bytes(), apply)
			if err != nil {
				t.Fatal(err)
			}
			if !res2.Resumed {
				t.Fatal("result does not report the resume")
			}
			if res2.Committed() != replicas {
				t.Fatalf("resumed rollout committed %d/%d", res2.Committed(), replicas)
			}
			if res2.SkippedCommitted < res1.Committed() {
				t.Fatalf("skipped %d < journal-proven %d", res2.SkippedCommitted, res1.Committed())
			}
			for i := range counts {
				if n := counts[i].Load(); n != 1 {
					t.Fatalf("replica %d rewritten %d times across crash+resume, want exactly 1", i, n)
				}
			}
			assertConverged(t, f, res2, dirDisable)
		})
	}
}

// TestFleetChaosTornStepMatrix sweeps every controller-crash boundary
// of four rollouts — a disable and an enable, each by transaction and
// by live patch — and resumes each crash from its journal. The odd
// cases also sweep a torn append at every journal record. A torn step
// is classified by the replica's live text root alone, so every resume
// must finish the rollout: no error, all replicas committed, the
// payload run exactly once per replica, and every replica in the
// rollout's target state.
func TestFleetChaosTornStepMatrix(t *testing.T) {
	tpl := bootLiveTemplate(t)
	disable := disableWebdav(tpl)
	disableLive := func(r *Replica) (core.Stats, error) {
		return r.Cust.DisableBlocksLive("webdav-write", tpl.blocks, core.PolicyBlockEntry)
	}
	enable := func(r *Replica) (core.Stats, error) { return r.Cust.EnableBlocks("webdav-write") }
	cases := []struct {
		name string
		cut  func(r *Replica) (core.Stats, error) // committed before the swept rollout
		step func(r *Replica) (core.Stats, error)
		dir  direction
	}{
		{"disable-transaction", nil, disable, dirDisable},
		{"disable-live", nil, disableLive, dirDisable},
		{"enable-after-transaction-cut", disable, enable, dirEnable},
		{"enable-after-live-cut", disableLive, enable, dirEnable},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sites := []string{faultinject.SiteFleetControllerCrash}
			if ci%2 == 1 {
				sites = append(sites, faultinject.SiteFleetJournalAppend)
			}
			for _, site := range sites {
				n := 1
				for crashThenResume(t, tpl, tc.cut, tc.step, tc.dir, site, n) {
					n++
				}
				if n < 3 {
					t.Fatalf("%s: the rollout crashed at %d boundaries, want a sweep", site, n-1)
				}
			}
		})
	}
}

// crashThenResume runs one cell of the torn-step matrix: an 8-replica
// fleet, optionally cut first, runs step with the nth hit of site
// armed, then resumes from the journal and checks the fleet converged.
// It reports false once the armed fault no longer lands — the sweep is
// past the rollout's last boundary.
func crashThenResume(t *testing.T, tpl *template, cut, step func(r *Replica) (core.Stats, error),
	dir direction, site string, n int) bool {
	t.Helper()
	const replicas = 8
	inj := faultinject.New(int64(n))
	f, err := New(tpl.m, tpl.pid, Config{Replicas: replicas, Workers: 2, Core: coreOpts(tpl), FaultHook: inj})
	if err != nil {
		t.Fatal(err)
	}
	if cut != nil {
		if res, err := f.Rollout(cut); err != nil || res.Committed() != replicas {
			t.Fatalf("cut rollout: err=%v committed=%d", err, res.Committed())
		}
	}
	inj.FailAt(site, n)
	counts := make([]atomic.Int32, replicas)
	apply := func(r *Replica) (core.Stats, error) {
		counts[r.Index].Add(1)
		return step(r)
	}
	c := NewController(f, nil)
	if _, err := c.Run(apply); err == nil {
		return false
	} else if !errors.Is(err, ErrControllerCrashed) {
		t.Fatalf("%s hit %d: err = %v, want ErrControllerCrashed", site, n, err)
	}
	res, err := resume(f, c.Journal().Bytes(), apply)
	if err != nil {
		t.Fatalf("%s hit %d: resume: %v", site, n, err)
	}
	if res.Committed() != replicas {
		t.Fatalf("%s hit %d: resumed rollout committed %d/%d", site, n, res.Committed(), replicas)
	}
	for i := range counts {
		if got := counts[i].Load(); got != 1 {
			t.Fatalf("%s hit %d: replica %d ran the payload %d times across crash+resume, want 1", site, n, i, got)
		}
	}
	assertConverged(t, f, res, dir)
	return true
}
