package fleet

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/dynacut/dynacut/internal/core"
	"github.com/dynacut/dynacut/internal/faultinject"
)

// Halt stops the rollout in progress from outside the controller:
// waves that have not started are cancelled and in-flight rewrites
// abort at their next pre-commit check.
func (f *Fleet) Halt() { f.halted.Store(true) }

// TestControllerJournalShape: a clean rollout journals a start record,
// one intent and one outcome per replica, one summary per wave, and a
// done record — and the serialized bytes decode back to exactly the
// records the controller committed.
func TestControllerJournalShape(t *testing.T) {
	tpl := bootTemplate(t)
	f, err := New(tpl.m, tpl.pid, Config{
		Replicas: 6, Workers: 2, CanaryShards: 1, WaveSize: 2,
		Core: coreOpts(tpl),
	})
	if err != nil {
		t.Fatal(err)
	}
	c := NewController(f, nil)
	res, err := c.Run(disableWebdav(tpl))
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed() != 6 {
		t.Fatalf("committed = %d/6", res.Committed())
	}

	recs := c.Journal().Records()
	if recs[0].Kind != RecStart || recs[0].Replica != 6 || recs[0].Attempt != 2 {
		t.Fatalf("first record = %+v, want start{replicas:6, lanes:2}", recs[0])
	}
	last := recs[len(recs)-1]
	if last.Kind != RecDone || last.Replica != 6 {
		t.Fatalf("last record = %+v, want done{committed:6}", last)
	}
	counts := map[RecKind]int{}
	for _, r := range recs {
		counts[r.Kind]++
		if r.Kind == RecOutcome {
			if r.Outcome != OutcomeCommitted {
				t.Fatalf("outcome record %+v in a clean rollout", r)
			}
			// Every commit journals the fingerprint of the replica's
			// committed (resealed) text root.
			att := f.Replicas()[r.Replica].Cust.Attestation()
			if r.Ident != rootIdent(att.Root) {
				t.Fatalf("outcome record %+v: ident is not the committed text root %08x", r, rootIdent(att.Root))
			}
		}
	}
	// Waves: canary of 1, then 2+2+1.
	want := map[RecKind]int{RecStart: 1, RecIntent: 6, RecOutcome: 6, RecWaveDone: 4, RecDone: 1}
	for k, n := range want {
		if counts[k] != n {
			t.Fatalf("journal has %d %s records, want %d (all: %v)", counts[k], k, n, counts)
		}
	}

	decoded, err := DecodeJournal(c.Journal().Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decoded, recs) {
		t.Fatal("serialized journal does not decode to the committed records")
	}

	// One attempt per replica — no step ever ran twice.
	for i, o := range res.Outcomes {
		if o.Attempts != 1 {
			t.Fatalf("replica %d: %d attempts, want 1", i, o.Attempts)
		}
	}
}

// TestRestorePristineRetryClearsErr is the regression test for the
// stale-lastErr bug: a pristine restore that fails once and then
// succeeds used to report the replica healthy (OutcomeRestored) while
// still carrying the first try's error in Err. A restored replica must
// have Err nil; the retry history lives in RestoreErrs.
func TestRestorePristineRetryClearsErr(t *testing.T) {
	tpl := bootTemplate(t)
	inj := faultinject.New(3)
	inj.FailAt(faultinject.SiteRestoreImages, 1)
	f, err := New(tpl.m, tpl.pid, Config{
		Replicas: 3, Workers: 1, CanaryShards: 1, WaveSize: 2,
		Core: coreOpts(tpl), FaultHook: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Canary commits; in wave 1 replica 1 commits and replica 2 fails,
	// halting the wave and forcing replica 1 through the faulted
	// restore path: try 1 is injected to fail, try 2 succeeds.
	res, err := f.Rollout(func(r *Replica) (core.Stats, error) {
		if r.Index == 2 {
			return core.Stats{}, fmt.Errorf("payload failure on replica %d", r.Index)
		}
		return r.Cust.DisableBlocks("webdav-write", tpl.blocks, core.PolicyBlockEntry)
	})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Outcomes[1]
	if out.Outcome != OutcomeRestored {
		t.Fatalf("replica 1 = %v, want restored", out.Outcome)
	}
	if out.Err != nil {
		t.Fatalf("restored replica still carries an error: %v", out.Err)
	}
	if len(out.RestoreErrs) != 1 || !errors.Is(out.RestoreErrs[0], faultinject.ErrInjected) {
		t.Fatalf("retry history = %v, want the one injected failure", out.RestoreErrs)
	}
	assertConverged(t, f, res, dirDisable)
}

// TestRestorePristineExhaustedIsLostAndJournaled: when all five
// RestoreImages tries (core's bound) fail, the halted wave's committed
// replica ends lost with each failed try in RestoreErrs, no process of
// it is left running, and its journaled outcome carries the same
// verdict and error text.
func TestRestorePristineExhaustedIsLostAndJournaled(t *testing.T) {
	tpl := bootTemplate(t)
	inj := faultinject.New(4)
	inj.FailTransient(faultinject.SiteRestoreImages, 1, -1)
	f, err := New(tpl.m, tpl.pid, Config{
		Replicas: 3, Workers: 1, CanaryShards: 1, WaveSize: 2,
		Core: coreOpts(tpl), FaultHook: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctl := NewController(f, nil)
	res, err := ctl.Run(func(r *Replica) (core.Stats, error) {
		if r.Index == 2 {
			return core.Stats{}, fmt.Errorf("payload failure on replica %d", r.Index)
		}
		return r.Cust.DisableBlocks("webdav-write", tpl.blocks, core.PolicyBlockEntry)
	})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Outcomes[1]
	if out.Outcome != OutcomeLost || !errors.Is(out.Err, faultinject.ErrInjected) {
		t.Fatalf("replica 1 = %v (%v), want lost to the injected faults", out.Outcome, out.Err)
	}
	if tries := inj.Hits(faultinject.SiteRestoreImages); tries != 5 || len(out.RestoreErrs) != 5 {
		t.Fatalf("%d failed tries recorded for %d restore tries, want 5 of 5", len(out.RestoreErrs), tries)
	}
	if n := len(f.Replicas()[1].Machine.Processes()); n != 0 {
		t.Fatalf("lost replica 1 still runs %d processes", n)
	}
	var last *Record
	recs := ctl.Journal().Records()
	for i := range recs {
		if recs[i].Kind == RecOutcome && recs[i].Replica == 1 {
			last = &recs[i]
		}
	}
	if last == nil || last.Outcome != OutcomeLost || last.Note != out.Err.Error() {
		t.Fatalf("journaled outcome = %+v, want lost with note %q", last, out.Err)
	}
}

// TestMidWaveHaltAbortsInFlight: Halt() landing while a wave's
// rewrites are in flight must stop them at the pre-commit gate — the
// BeforeCommit hook — with every in-flight guest untouched, and cancel
// all later waves. The two wave replicas coordinate through a channel
// so the halt provably lands mid-wave, not between waves.
func TestMidWaveHaltAbortsInFlight(t *testing.T) {
	tpl := bootTemplate(t)
	f, err := New(tpl.m, tpl.pid, Config{
		Replicas: 5, Workers: 2, CanaryShards: 1, WaveSize: 2,
		Core: coreOpts(tpl),
	})
	if err != nil {
		t.Fatal(err)
	}
	halted := make(chan struct{})
	res, err := f.Rollout(func(r *Replica) (core.Stats, error) {
		switch r.Index {
		case 1:
			// First wave-1 worker: pull the brake mid-wave, then try to
			// finish its own rewrite — which must now refuse to commit.
			f.Halt()
			close(halted)
		case 2:
			// Sibling worker: provably still in flight when the halt
			// lands.
			<-halted
		}
		return r.Cust.DisableBlocks("webdav-write", tpl.blocks, core.PolicyBlockEntry)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted || res.HaltedWave != 1 {
		t.Fatalf("mid-wave halt not honored: %+v", res)
	}
	// The canary committed in its own healthy wave and keeps the new
	// version; both in-flight rewrites aborted pre-commit; the last
	// wave never started.
	if res.Outcomes[0].Outcome != OutcomeCommitted {
		t.Fatalf("canary = %v, want committed", res.Outcomes[0].Outcome)
	}
	for _, i := range []int{1, 2} {
		o := res.Outcomes[i]
		if o.Outcome != OutcomeAborted {
			t.Fatalf("in-flight replica %d = %v (%v), want aborted at pre-commit", i, o.Outcome, o.Err)
		}
		if !errors.Is(o.Err, core.ErrAborted) || !strings.Contains(o.Err.Error(), ErrHalted.Error()) {
			t.Fatalf("replica %d abort error = %v, want core.ErrAborted wrapping the halt", i, o.Err)
		}
	}
	for _, i := range []int{3, 4} {
		if o := res.Outcomes[i].Outcome; o != OutcomePending {
			t.Fatalf("cancelled replica %d = %v, want pending", i, o)
		}
	}
	assertConverged(t, f, res, dirDisable)
}

// TestControllerStepStreamAndStatus: the controller streams every
// scheduling event through Config.OnStep, and a clean rollout reports
// every replica committed.
func TestControllerStepStreamAndStatus(t *testing.T) {
	tpl := bootTemplate(t)
	var events []StepEvent
	f, err := New(tpl.m, tpl.pid, Config{
		Replicas: 6, Workers: 2, CanaryShards: 1, WaveSize: 2,
		Core:   coreOpts(tpl),
		OnStep: func(ev StepEvent) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewController(f, nil).Run(disableWebdav(tpl))
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed() != 6 {
		t.Fatalf("committed = %d/6", res.Committed())
	}

	kinds := map[string]int{}
	for _, ev := range events {
		kinds[ev.Kind]++
	}
	if kinds["lease"] != 6 || kinds["outcome"] != 6 {
		t.Fatalf("event stream = %v, want 6 leases and 6 outcomes", kinds)
	}
	if kinds["expire"] != 0 || kinds["requeue"] != 0 || kinds["crash"] != 0 {
		t.Fatalf("clean rollout streamed failure events: %v", kinds)
	}

}
