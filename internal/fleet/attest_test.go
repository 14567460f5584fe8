package fleet

import (
	"encoding/binary"
	"strings"
	"testing"

	"github.com/dynacut/dynacut/internal/core"
	"github.com/dynacut/dynacut/internal/faultinject"
)

// applyLive is the live-patch rollout payload the sweep tests use.
func applyLive(tpl *template) func(r *Replica) (core.Stats, error) {
	return func(r *Replica) (core.Stats, error) {
		return r.Cust.DisableBlocksLive("webdav-write", tpl.blocks, core.PolicyBlockEntry)
	}
}

// recKinds tallies a journal's records by kind.
func recKinds(recs []Record) map[RecKind]int {
	out := map[RecKind]int{}
	for _, r := range recs {
		out[r.Kind]++
	}
	return out
}

// TestFleetScrubCleanRollout: a Scrub rollout over a healthy fleet
// journals a clean attestation per replica per wave, repairs nothing,
// quarantines nobody — and the mid-rollout quorum split (committed vs
// not-yet-committed roots) stays advisory.
func TestFleetScrubCleanRollout(t *testing.T) {
	tpl := bootLiveTemplate(t)
	cfg := liveConfig(tpl, 6, 2, 1, 3)
	cfg.Scrub = true
	f, err := New(tpl.m, tpl.pid, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctl := NewController(f, nil)
	res, err := ctl.Run(applyLive(tpl))
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed() != 6 {
		t.Fatalf("committed = %d/6: %+v", res.Committed(), res.Outcomes)
	}
	if len(res.Sweeps) != len(res.Waves) {
		t.Fatalf("%d sweeps for %d waves", len(res.Sweeps), len(res.Waves))
	}
	for _, sw := range res.Sweeps {
		if sw.Repaired != 0 || sw.Quarantined != 0 || sw.Skews != 0 {
			t.Fatalf("healthy fleet sweep did work: %+v", sw)
		}
		for _, ra := range sw.Replicas {
			if ra.Verdict != VerdictClean || ra.Err != nil {
				t.Fatalf("replica %d sweep verdict %v err %v", ra.Index, ra.Verdict, ra.Err)
			}
		}
	}
	// After wave 0 only the canary carries the patched root: it is the
	// 1-vs-5 minority in the advisory quorum, and nothing happens to it.
	if sw := res.Sweeps[0]; sw.Quorum != 5 || sw.Divergent != 1 {
		t.Errorf("canary-wave sweep quorum %d divergent %d, want 5/1", sw.Quorum, sw.Divergent)
	}
	// After the last wave every replica holds the same root.
	if sw := res.Sweeps[len(res.Sweeps)-1]; sw.Quorum != 6 || sw.Divergent != 0 {
		t.Errorf("final sweep quorum %d divergent %d, want 6/0", sw.Quorum, sw.Divergent)
	}
	// Journal: the DJL3 magic, one clean attest record per replica per
	// wave.
	data := ctl.Journal().Bytes()
	if binary.LittleEndian.Uint32(data) != 0x444a_4c33 {
		t.Fatalf("journal magic %#x, want DJL3", binary.LittleEndian.Uint32(data))
	}
	kinds := recKinds(ctl.Journal().Records())
	if kinds[RecAttest] != 6*len(res.Waves) {
		t.Errorf("RecAttest count = %d, want %d", kinds[RecAttest], 6*len(res.Waves))
	}
	if kinds[RecRepair] != 0 || kinds[RecQuarantine] != 0 {
		t.Errorf("clean rollout journaled repairs/quarantines: %v", kinds)
	}
}

// TestFleetScrubRepairsBitflipStorm: silent bit flips injected during
// the sweeps are detected and repaired in place — zero restore
// downtime, PIDs unchanged, no halt — and the repairs are journaled.
func TestFleetScrubRepairsBitflipStorm(t *testing.T) {
	tpl := bootLiveTemplate(t)
	inj := faultinject.New(5)
	inj.FailTransient(faultinject.SiteTextBitflip, 1, 3)
	cfg := liveConfig(tpl, 6, 2, 1, 3)
	cfg.Scrub = true
	cfg.FaultHook = inj
	f, err := New(tpl.m, tpl.pid, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pids := make([]int, 6)
	for _, r := range f.Replicas() {
		pids[r.Index] = r.Cust.PID()
	}
	ctl := NewController(f, nil)
	res, err := ctl.Run(applyLive(tpl))
	if err != nil {
		t.Fatal(err)
	}
	if inj.Injected() == 0 {
		t.Fatal("armed bitflips never fired")
	}
	if res.Committed() != 6 || res.Halted {
		t.Fatalf("rollout: committed %d halted %v", res.Committed(), res.Halted)
	}
	repaired := 0
	for _, sw := range res.Sweeps {
		repaired += sw.Repaired
		if sw.Quarantined != 0 {
			t.Fatalf("repairable storm quarantined a replica: %+v", sw)
		}
	}
	if repaired == 0 {
		t.Fatal("no replica repaired despite fired bitflips")
	}
	kinds := recKinds(ctl.Journal().Records())
	if kinds[RecRepair] == 0 {
		t.Error("no RecRepair journaled")
	}
	// Zero-downtime accounting, both ledgers: the journal holds no
	// restore outcomes, and no replica's root PID moved.
	for _, rec := range ctl.Journal().Records() {
		if rec.Kind == RecOutcome && rec.Outcome == OutcomeRestored {
			t.Errorf("sweep repair paid a restore: %+v", rec)
		}
	}
	for _, r := range f.Replicas() {
		if r.Cust.PID() != pids[r.Index] {
			t.Errorf("replica %d PID %d -> %d: a restore leaked into the repair path",
				r.Index, pids[r.Index], r.Cust.PID())
		}
		r.Machine.SetFaultHook(nil)
		rep, err := r.Cust.Attest()
		if err != nil || !rep.Clean() {
			t.Errorf("replica %d post-rollout attest: %v clean=%v", r.Index, err, rep.Clean())
		}
		if got := request(r.Machine, 8080, "PUT /f data\n"); !strings.Contains(got, "403") {
			t.Errorf("replica %d PUT -> %q, want 403", r.Index, got)
		}
	}
}

// TestFleetScrubSkewIsAdvisory: a corrupted collection channel (the
// fleet.attest.skew site) must trigger the authoritative re-attestation
// and nothing else — no repair, no quarantine, verdict journaled skew.
func TestFleetScrubSkewIsAdvisory(t *testing.T) {
	tpl := bootLiveTemplate(t)
	inj := faultinject.New(9)
	inj.FailTransient(faultinject.SiteAttestSkew, 2, 2)
	cfg := liveConfig(tpl, 4, 2, 1, 3)
	cfg.Scrub = true
	cfg.FaultHook = inj
	f, err := New(tpl.m, tpl.pid, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctl := NewController(f, nil)
	res, err := ctl.Run(applyLive(tpl))
	if err != nil {
		t.Fatal(err)
	}
	if inj.Injected() == 0 {
		t.Fatal("armed skew fault never fired")
	}
	if res.Committed() != 4 {
		t.Fatalf("committed = %d/4", res.Committed())
	}
	skews, repaired, quarantined := 0, 0, 0
	for _, sw := range res.Sweeps {
		skews += sw.Skews
		repaired += sw.Repaired
		quarantined += sw.Quarantined
	}
	if skews == 0 {
		t.Fatal("skewed collection never detected")
	}
	if repaired != 0 || quarantined != 0 {
		t.Fatalf("skew caused repairs (%d) or quarantine (%d): channel noise must not touch text", repaired, quarantined)
	}
	found := false
	for _, rec := range ctl.Journal().Records() {
		if rec.Kind == RecAttest && AttestVerdict(rec.Attempt) == VerdictSkew {
			found = true
		}
	}
	if !found {
		t.Error("no VerdictSkew attest record journaled")
	}
}

// TestFleetScrubRepairSuccessClearsErrKeepsHistory: the stale-state
// regression for the repair ladder — a repair that succeeds on its
// final budgeted try must report the replica healthy (Err nil) while
// keeping every failed try's error in RepairErrs.
func TestFleetScrubRepairSuccessClearsErrKeepsHistory(t *testing.T) {
	tpl := bootLiveTemplate(t)
	inj := faultinject.New(3)
	inj.FailTransient(faultinject.SiteAttestRepair, 1, 2) // tries 1 and 2 fail, 3 heals
	cfg := liveConfig(tpl, 1, 1, 1, 1)
	cfg.Scrub = true
	cfg.FaultHook = inj
	cfg.RepairBudget = 3
	f, err := New(tpl.m, tpl.pid, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := f.Replicas()[0]
	p, err := r.Machine.Process(r.Cust.PID())
	if err != nil {
		t.Fatal(err)
	}
	if !p.Mem().FlipBits(tpl.blocks[0].Addr, 0x04) {
		t.Fatal("flip refused")
	}
	ctl := NewController(f, nil)
	sw := ctl.AttestSweep(0)
	if len(sw.Replicas) != 1 {
		t.Fatalf("sweep covered %d replicas", len(sw.Replicas))
	}
	ra := sw.Replicas[0]
	if ra.Err != nil {
		t.Fatalf("repair succeeded on try %d but Err = %v (stale failure state)", ra.Tries, ra.Err)
	}
	if ra.Tries != 3 || len(ra.RepairErrs) != 2 {
		t.Fatalf("tries = %d, repair history = %d errors, want 3 tries / 2 errors", ra.Tries, len(ra.RepairErrs))
	}
	if ra.Verdict != VerdictForeign || ra.Repaired == 0 {
		t.Fatalf("verdict %v repaired %d, want foreign repair", ra.Verdict, ra.Repaired)
	}
	if r.Quarantined() {
		t.Fatal("healed replica left quarantined")
	}
	kinds := recKinds(ctl.Journal().Records())
	if kinds[RecRepair] != 3 || kinds[RecQuarantine] != 0 {
		t.Fatalf("journal kinds %v, want 3 repairs and no quarantine", kinds)
	}
}

// TestFleetScrubQuarantineAndResumeReadmit: a replica whose repairs
// exhaust the budget is quarantined — journaled, drained from
// Fleet.Active — and a resumed controller re-attests it before
// readmission: once the repair path works again, the replica heals and
// rejoins with a journaled VerdictReadmit.
func TestFleetScrubQuarantineAndResumeReadmit(t *testing.T) {
	tpl := bootLiveTemplate(t)
	inj := faultinject.New(7)
	inj.FailTransient(faultinject.SiteTextBitflip, 1, 1)   // one silent flip, first sweep
	inj.FailTransient(faultinject.SiteAttestRepair, 1, -1) // every repair hard-fails
	cfg := liveConfig(tpl, 4, 2, 1, 3)
	cfg.Scrub = true
	cfg.FaultHook = inj
	cfg.RepairBudget = 2
	f, err := New(tpl.m, tpl.pid, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctl := NewController(f, nil)
	res, err := ctl.Run(applyLive(tpl))
	if err != nil {
		t.Fatal(err)
	}
	victim := -1
	for _, r := range f.Replicas() {
		if r.Quarantined() {
			if victim >= 0 {
				t.Fatalf("replicas %d and %d both quarantined, one flip armed", victim, r.Index)
			}
			victim = r.Index
		}
	}
	if victim < 0 {
		t.Fatalf("budget-exhausted replica not quarantined: sweeps %+v", res.Sweeps)
	}
	if got := len(f.Active()); got != 3 {
		t.Fatalf("Active() = %d replicas, want 3 (quarantine must drain)", got)
	}
	kinds := recKinds(ctl.Journal().Records())
	if kinds[RecQuarantine] == 0 {
		t.Fatal("quarantine not journaled")
	}
	var quarantineErrs []error
	for _, sw := range res.Sweeps {
		for _, ra := range sw.Replicas {
			if ra.Index == victim && ra.Err != nil {
				quarantineErrs = append(quarantineErrs, ra.Err)
				if len(ra.RepairErrs) != 2 {
					t.Errorf("repair history = %d errors, want the full budget of 2", len(ra.RepairErrs))
				}
			}
		}
	}
	if len(quarantineErrs) == 0 {
		t.Fatal("quarantined replica reported no error")
	}

	// Resume with the repair path healthy again: the journal replays the
	// quarantine, the re-attestation finds the (still corrupt) text,
	// repairs it, and readmits.
	for _, r := range f.Replicas() {
		r.Machine.SetFaultHook(nil)
	}
	ctl2, err := ResumeController(f, ctl.Journal().Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctl2.Run(applyLive(tpl)); err != nil {
		t.Fatal(err)
	}
	if f.Replicas()[victim].Quarantined() {
		t.Fatal("healed replica not readmitted on resume")
	}
	if got := len(f.Active()); got != 4 {
		t.Fatalf("Active() = %d after readmit, want 4", got)
	}
	readmitted := false
	for _, rec := range ctl2.Journal().Records() {
		if rec.Kind == RecAttest && AttestVerdict(rec.Attempt) == VerdictReadmit && int(rec.Replica) == victim {
			readmitted = true
		}
	}
	if !readmitted {
		t.Fatal("readmission not journaled")
	}
	rep, err := f.Replicas()[victim].Cust.Attest()
	if err != nil || !rep.Clean() {
		t.Fatalf("readmitted replica attests dirty: %v clean=%v", err, rep.Clean())
	}
}
