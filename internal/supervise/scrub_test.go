package supervise

import (
	"strings"
	"testing"

	"github.com/dynacut/dynacut/internal/apps/webserv"
	"github.com/dynacut/dynacut/internal/core"
	"github.com/dynacut/dynacut/internal/faultinject"
)

// TestStormLadderScrubRepairsCorruptText: a storm whose deeper rungs
// are unavailable reaches rung 4 — attest and scrub — and when the
// guest's text really has silently diverged, the scrub repairs it in
// place and the ladder STOPS there: no pristine restore, no downtime,
// the disabled feature stays disabled.
func TestStormLadderScrubRepairsCorruptText(t *testing.T) {
	b := boot(t, webserv.Config{Name: "lighttpd", Port: 9210})
	blocks := b.profile(t,
		[]string{"GET /\n", "HEAD /\n", "OPTIONS /\n", "POST /\n", "MKCOL /x\n", "BREW /\n"},
		[]string{"PUT /f data\n", "DELETE /f\n"})
	in := faultinject.New(7)
	in.FailTransient(faultinject.SiteSuperviseReenable, 1, -1) // hard faults
	in.FailTransient(faultinject.SiteSuperviseDisarm, 1, -1)
	b.m.SetFaultHook(in)
	cust, err := core.New(b.m, b.root, core.Options{RedirectTo: b.errPath(t)})
	if err != nil {
		t.Fatal(err)
	}
	sup := New(b.m, cust, Config{
		PollEvery:      neverPoll,
		StormThreshold: 3,
		StormWindow:    1 << 40,
	})
	if err := sup.Attach(); err != nil {
		t.Fatal(err)
	}
	if _, err := sup.DisableFeature("webdav", blocks, core.PolicyBlockEntry); err != nil {
		t.Fatal(err)
	}

	// Silent corruption inside the disabled block's body (never
	// executed — the entry INT3 fires first — so it manifests only as
	// diverged text, exactly the failure the scrub rung exists for).
	p, err := b.m.Process(cust.PID())
	if err != nil {
		t.Fatal(err)
	}
	if !p.Mem().FlipBits(blocks[0].Addr+2, 0x40) {
		t.Fatal("flip refused")
	}

	for i := 0; i < 4; i++ {
		b.request(t, "PUT /f x\n")
	}
	sup.Step(b.m.Clock())

	if lvl := sup.Level(); lvl != 4 {
		t.Fatalf("ladder level %d, want 4 (scrub)", lvl)
	}
	if sup.Status().Restored {
		t.Fatal("scrub rung escalated to a pristine restore anyway")
	}
	rep, err := cust.Attest()
	if err != nil || !rep.Clean() {
		t.Fatalf("text still diverged after scrub: %v %+v", err, rep)
	}
	// The feature stayed disabled (no pristine rollback happened) and
	// the guest is serving.
	if got := b.request(t, "PUT /f x\n"); !strings.Contains(got, "403") {
		t.Fatalf("PUT after scrub -> %q, want 403 (feature lost)", got)
	}
	b.assertGET(t)
}

// TestStormLadderScrubFallsThroughOnCleanText: the same starved
// ladder with NO text divergence must not stop at the scrub rung — a
// clean attestation is not an answer to a storm, so the ladder
// proceeds to the pristine restore.
func TestStormLadderScrubFallsThroughOnCleanText(t *testing.T) {
	b := boot(t, webserv.Config{Name: "lighttpd", Port: 9211})
	blocks := b.profile(t,
		[]string{"GET /\n", "HEAD /\n", "OPTIONS /\n", "POST /\n", "MKCOL /x\n", "BREW /\n"},
		[]string{"PUT /f data\n", "DELETE /f\n"})
	in := faultinject.New(7)
	in.FailTransient(faultinject.SiteSuperviseReenable, 1, -1)
	in.FailTransient(faultinject.SiteSuperviseDisarm, 1, -1)
	b.m.SetFaultHook(in)
	cust, err := core.New(b.m, b.root, core.Options{RedirectTo: b.errPath(t)})
	if err != nil {
		t.Fatal(err)
	}
	sup := New(b.m, cust, Config{
		PollEvery:      neverPoll,
		StormThreshold: 3,
		StormWindow:    1 << 40,
	})
	if err := sup.Attach(); err != nil {
		t.Fatal(err)
	}
	if _, err := sup.DisableFeature("webdav", blocks, core.PolicyBlockEntry); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		b.request(t, "PUT /f x\n")
	}
	sup.Step(b.m.Clock())

	if !sup.Status().Restored || !sup.Status().Disarmed {
		t.Fatalf("clean-text storm: restored=%v disarmed=%v, want both (scrub must not absorb it)",
			sup.Status().Restored, sup.Status().Disarmed)
	}
}

// TestScrubRungFaultFallsThrough: an injected supervise.scrub fault
// starves rung 4 even with corrupt text; the ladder answers with the
// pristine restore, which also heals the corruption.
func TestScrubRungFaultFallsThrough(t *testing.T) {
	b := boot(t, webserv.Config{Name: "lighttpd", Port: 9212})
	blocks := b.profile(t,
		[]string{"GET /\n", "HEAD /\n", "OPTIONS /\n", "POST /\n", "MKCOL /x\n", "BREW /\n"},
		[]string{"PUT /f data\n", "DELETE /f\n"})
	in := faultinject.New(7)
	in.FailTransient(faultinject.SiteSuperviseReenable, 1, -1)
	in.FailTransient(faultinject.SiteSuperviseDisarm, 1, -1)
	in.FailTransient(faultinject.SiteSuperviseScrub, 1, -1)
	b.m.SetFaultHook(in)
	cust, err := core.New(b.m, b.root, core.Options{RedirectTo: b.errPath(t)})
	if err != nil {
		t.Fatal(err)
	}
	sup := New(b.m, cust, Config{
		PollEvery:      neverPoll,
		StormThreshold: 3,
		StormWindow:    1 << 40,
	})
	if err := sup.Attach(); err != nil {
		t.Fatal(err)
	}
	if _, err := sup.DisableFeature("webdav", blocks, core.PolicyBlockEntry); err != nil {
		t.Fatal(err)
	}
	p, err := b.m.Process(cust.PID())
	if err != nil {
		t.Fatal(err)
	}
	p.Mem().FlipBits(blocks[0].Addr+2, 0x40)
	for i := 0; i < 4; i++ {
		b.request(t, "PUT /f x\n")
	}
	sup.Step(b.m.Clock())

	if !sup.Status().Restored {
		t.Fatal("faulted scrub rung did not fall through to restore")
	}
	// The restore rebound the customizer to pristine text; its fresh
	// oracle must attest clean.
	rep, err := cust.Attest()
	if err != nil || !rep.Clean() {
		t.Fatalf("restored guest attests dirty: %v %+v", err, rep)
	}
	b.assertGET(t)
}
