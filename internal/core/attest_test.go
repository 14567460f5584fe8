package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/dynacut/dynacut/internal/apps/webserv"
	"github.com/dynacut/dynacut/internal/coverage"
	"github.com/dynacut/dynacut/internal/faultinject"
	"github.com/dynacut/dynacut/internal/kernel"
	"github.com/dynacut/dynacut/internal/obs"
)

// TestAttestCleanGuestAndRootEvolution: a freshly sealed oracle
// attests clean, the live root equals the oracle root, and committing
// a live patch moves the root (new page digests + new feature set)
// while staying clean.
func TestAttestCleanGuestAndRootEvolution(t *testing.T) {
	_, blocks, c := liveTestbed(t, webserv.Config{Name: "lighttpd", Port: 9320}, Options{})

	att0 := c.Attestation()
	if len(att0.Pages) == 0 {
		t.Fatal("oracle sealed with no text pages")
	}
	rep, err := c.Attest()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("pristine guest attests dirty: %+v", rep.Mismatches)
	}
	if rep.LiveRoot != att0.Root {
		t.Fatalf("live root %x != oracle root %x on a clean guest", rep.LiveRoot[:8], att0.Root[:8])
	}

	stats, err := c.DisableBlocksLive("webdav-write", blocks, PolicyBlockEntry)
	if err != nil || !stats.LivePatched {
		t.Fatalf("live disable: %v (stats %+v)", err, stats)
	}
	att1 := c.Attestation()
	if att1.Root == att0.Root {
		t.Fatal("root did not move across a committed live patch")
	}
	if len(att1.Features) != 1 || att1.Features[0] != "webdav-write" {
		t.Fatalf("feature set = %v", att1.Features)
	}
	rep, err = c.Attest()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.LiveRoot != att1.Root {
		t.Fatalf("patched guest attests dirty: %d mismatches, live %x want %x",
			len(rep.Mismatches), rep.LiveRoot[:8], att1.Root[:8])
	}
}

// TestAttestDetectsForeignBitflipAndRepairs: a silent one-bit flip in
// a text page is invisible to every loud channel but must show up as
// exactly one foreign mismatch — and the in-place repair must heal it
// with zero downtime (no kill, no restore, PID unchanged).
func TestAttestDetectsForeignBitflipAndRepairs(t *testing.T) {
	tb, blocks, c := liveTestbed(t, webserv.Config{Name: "lighttpd", Port: 9321}, Options{})
	_ = tb
	pidBefore := c.PID()
	p, err := c.machine.Process(c.pid)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a byte inside the (idle) feature code, not the hot path.
	target := blocks[0].Addr
	if !p.Mem().FlipBits(target, 0x04) {
		t.Fatal("flip refused")
	}

	rep, err := c.Attest()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Mismatches) != 1 || rep.Mismatches[0].Verdict != PageForeign {
		t.Fatalf("mismatches = %+v, want one foreign", rep.Mismatches)
	}
	if rep.Mismatches[0].Page != target/kernel.PageSize {
		t.Fatalf("mismatch page %#x, want %#x", rep.Mismatches[0].Page, target/kernel.PageSize)
	}

	// foreign=false leaves it alone.
	rs, err := c.Repair(rep, false)
	if err != nil || rs.Repaired != 0 || rs.Skipped != 1 {
		t.Fatalf("conservative repair: %+v, %v", rs, err)
	}
	// foreign=true heals it in place.
	rs, err = c.Repair(rep, true)
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	if rs.Repaired != 1 {
		t.Fatalf("repaired = %d, want 1", rs.Repaired)
	}
	if c.PID() != pidBefore {
		t.Fatalf("repair changed root PID %d -> %d: a restore leaked in", pidBefore, c.PID())
	}
	rep2, err := c.Attest()
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Clean() {
		t.Fatalf("still diverged after repair: %+v", rep2.Mismatches)
	}
}

// TestAttestClassifiesPriorVersionRepairable: text silently reverted
// to a version the oracle has seen (pristine bytes where a patch
// should be) is repairable, not foreign — the version chain knows it.
func TestAttestClassifiesPriorVersionRepairable(t *testing.T) {
	tb, blocks, c := liveTestbed(t, webserv.Config{Name: "lighttpd", Port: 9322}, Options{})
	_ = tb
	stats, err := c.DisableBlocksLive("webdav-write", blocks, PolicyBlockEntry)
	if err != nil || !stats.LivePatched {
		t.Fatalf("live disable: %v (stats %+v)", err, stats)
	}
	// Silently undo every patch byte: the page content returns to its
	// pristine (known prior) version.
	p, err := c.machine.Process(c.pid)
	if err != nil {
		t.Fatal(err)
	}
	for addr, orig := range c.saved {
		if err := p.Mem().Write(addr, orig); err != nil {
			t.Fatal(err)
		}
	}

	rep, err := c.Attest()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("silent un-patch not detected")
	}
	for _, mm := range rep.Mismatches {
		if mm.Verdict != PageRepairable {
			t.Fatalf("mismatch %+v classified %v, want repairable", mm.Page, mm.Verdict)
		}
	}
	// Repairable pages heal without the foreign escalation.
	rs, err := c.Repair(rep, false)
	if err != nil || rs.Repaired != len(rep.Mismatches) {
		t.Fatalf("repair: %+v, %v", rs, err)
	}
	rep2, err := c.Attest()
	if err != nil || !rep2.Clean() {
		t.Fatalf("post-repair attest: %v, %+v", err, rep2.Mismatches)
	}
	// And the feature is enforced again.
	if got := tb.request(t, "PUT /f data\n"); !strings.Contains(got, "403") {
		t.Fatalf("PUT after repair -> %q, want 403 (patch bytes not restored)", got)
	}
}

// TestAttestInjectedBitflipSiteIsSilent: the kernel.text.bitflip site
// corrupts without an error surfacing anywhere — only the sweep sees
// it — and the repair ladder then converges.
func TestAttestInjectedBitflipSiteIsSilent(t *testing.T) {
	tb, _, c := liveTestbed(t, webserv.Config{Name: "lighttpd", Port: 9323}, Options{})
	inj := faultinject.New(7)
	inj.FailAt(faultinject.SiteTextBitflip, 1)
	tb.m.SetFaultHook(inj)
	defer tb.m.SetFaultHook(nil)

	rep, err := c.Attest()
	if err != nil {
		t.Fatalf("attest surfaced an error for a silent fault: %v", err)
	}
	if inj.Injected() == 0 {
		t.Fatal("armed bitflip never fired")
	}
	if rep.Clean() {
		t.Fatal("injected bitflip not detected by the sweep")
	}
	if _, err := c.Repair(rep, true); err != nil {
		t.Fatalf("repair: %v", err)
	}
	rep2, err := c.Attest()
	if err != nil || !rep2.Clean() {
		t.Fatalf("post-repair attest: %v, %+v", err, rep2.Mismatches)
	}
}

// TestRepairFaultUnwindsAndRetries: an injected repair fault fails the
// pass all-or-nothing; a later un-faulted pass heals.
func TestRepairFaultUnwindsAndRetries(t *testing.T) {
	tb, blocks, c := liveTestbed(t, webserv.Config{Name: "lighttpd", Port: 9324}, Options{})
	p, err := c.machine.Process(c.pid)
	if err != nil {
		t.Fatal(err)
	}
	p.Mem().FlipBits(blocks[0].Addr, 0x10)

	inj := faultinject.New(3)
	inj.FailAt(faultinject.SiteAttestRepair, 1)
	tb.m.SetFaultHook(inj)
	defer tb.m.SetFaultHook(nil)

	rep, err := c.Attest()
	if err != nil || rep.Clean() {
		t.Fatalf("attest: %v clean=%v", err, rep.Clean())
	}
	rs, err := c.Repair(rep, true)
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("repair error = %v, want injected", err)
	}
	if rs.Repaired != 0 {
		t.Fatalf("failed repair reported %d repaired pages", rs.Repaired)
	}
	// The fault is spent; the retry heals.
	if _, err := c.Repair(rep, true); err != nil {
		t.Fatalf("retry repair: %v", err)
	}
	rep2, err := c.Attest()
	if err != nil || !rep2.Clean() {
		t.Fatalf("post-retry attest: %v, %+v", err, rep2.Mismatches)
	}
}

// TestRepairSurvivesRottenExpectedBlob: when the store blob for the
// expected digest itself has rotted, repair falls back to a prior
// version re-overlaid with the recorded patched bytes — Materialize
// the pristine blob, re-apply the deltas, verify.
func TestRepairSurvivesRottenExpectedBlob(t *testing.T) {
	tb, blocks, c := liveTestbed(t, webserv.Config{Name: "lighttpd", Port: 9325}, Options{})
	stats, err := c.DisableBlocksLive("webdav-write", blocks, PolicyBlockEntry)
	if err != nil || !stats.LivePatched {
		t.Fatalf("live disable: %v (stats %+v)", err, stats)
	}
	p, err := c.machine.Process(c.pid)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one patched page's live bytes.
	p.Mem().FlipBits(blocks[0].Addr, 0x20)

	// Rot the expected blob on its first read: repair's primary source
	// dies, the pristine+overlay fallback must carry it.
	inj := faultinject.New(11)
	inj.FailAt(faultinject.SiteStoreRot, 1)
	c.attestStore().SetFaultHook(inj)
	defer c.attestStore().SetFaultHook(nil)
	_ = tb

	rep, err := c.Attest()
	if err != nil || rep.Clean() {
		t.Fatalf("attest: %v clean=%v", err, rep.Clean())
	}
	rs, err := c.Repair(rep, true)
	if err != nil {
		t.Fatalf("repair through rotten expected blob: %v", err)
	}
	if rs.Repaired == 0 {
		t.Fatal("nothing repaired")
	}
	if inj.Injected() == 0 {
		t.Fatal("armed rot fault never fired")
	}
	rep2, err := c.Attest()
	if err != nil || !rep2.Clean() {
		t.Fatalf("post-repair attest: %v, %+v", err, rep2.Mismatches)
	}
}

// TestAttestObserverSpans: every sweep and repair decision lands in
// the observer stream.
func TestAttestObserverSpans(t *testing.T) {
	obsv := obs.New(0)
	tb, blocks, c := liveTestbed(t, webserv.Config{Name: "lighttpd", Port: 9326}, Options{Observer: obsv})
	_ = tb
	p, err := c.machine.Process(c.pid)
	if err != nil {
		t.Fatal(err)
	}
	p.Mem().FlipBits(blocks[0].Addr, 0x08)
	rep, err := c.Attest()
	if err != nil || rep.Clean() {
		t.Fatalf("attest: %v clean=%v", err, rep.Clean())
	}
	if _, err := c.Repair(rep, true); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"attest": false, "attest.mismatch": false, "attest.repair": false, "attest.repair.page": false}
	for _, ev := range obsv.Events() {
		if _, ok := want[ev.Name]; ok {
			want[ev.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("no %q event emitted", name)
		}
	}
}

// TestAttestLiveRootMatchesOracleAndReport: LiveRoot is the cheap
// probe a fleet sweep collects — it must equal the oracle root on a
// clean guest and the full report's LiveRoot always. The report's
// verdict counters and the verdict names ride along.
func TestAttestLiveRootMatchesOracleAndReport(t *testing.T) {
	tb, _, c := liveTestbed(t, webserv.Config{Name: "lighttpd", Port: 9327}, Options{})

	att := c.Attestation()
	lr, err := c.LiveRoot()
	if err != nil {
		t.Fatal(err)
	}
	if lr != att.Root {
		t.Fatalf("clean guest: LiveRoot %x != oracle root %x", lr[:8], att.Root[:8])
	}

	// Flip a text bit by hand: LiveRoot moves, the report classifies
	// the page foreign, and the counters agree.
	var pn uint64
	for p := range att.Pages {
		pn = p
		break
	}
	proc, err := tb.m.Process(c.PID())
	if err != nil {
		t.Fatal(err)
	}
	if !proc.Mem().FlipBits(pn*kernel.PageSize+9, 0x20) {
		t.Fatal("FlipBits refused the oracle page")
	}
	lr2, err := c.LiveRoot()
	if err != nil {
		t.Fatal(err)
	}
	if lr2 == att.Root {
		t.Fatal("LiveRoot blind to a flipped text bit")
	}
	rep, err := c.Attest()
	if err != nil {
		t.Fatal(err)
	}
	if rep.LiveRoot != lr2 {
		t.Fatal("Attest's LiveRoot disagrees with LiveRoot()")
	}
	if rep.Foreign() != 1 || len(rep.Mismatches) != 1 || rep.Clean() {
		t.Fatalf("verdict counters: foreign=%d mismatches=%d clean=%v, want 1/1/false",
			rep.Foreign(), len(rep.Mismatches), rep.Clean())
	}
	for _, m := range rep.Mismatches {
		if m.Verdict.String() != "foreign" {
			t.Fatalf("verdict name = %q, want foreign", m.Verdict.String())
		}
	}
	if PageClean.String() != "clean" || PageRepairable.String() != "repairable" {
		t.Fatal("PageVerdict names wrong")
	}
}

// untouchedTextPage returns a sealed text page that no span in spans
// reaches: a page an edit of those spans leaves alone.
func untouchedTextPage(t *testing.T, c *Customizer, spans []blockSpan) uint64 {
	t.Helper()
	touched := map[uint64]bool{}
	for _, pn := range spanPages(spans) {
		touched[pn] = true
	}
	for _, pn := range c.oraclePageNumbers() {
		if !touched[pn] {
			return pn
		}
	}
	t.Fatal("every text page is touched by the edit")
	return 0
}

// entrySpans is the one-byte span of every block entry: what
// PolicyBlockEntry writes.
func entrySpans(blocks []coverage.AbsBlock) []blockSpan {
	spans := make([]blockSpan, len(blocks))
	for i, b := range blocks {
		spans[i] = blockSpan{lo: b.Addr, hi: b.Addr + 1}
	}
	return spans
}

// flipAndExpectForeign flips one bit of text page pn, runs rewrite, and
// checks that the flip is still a foreign mismatch afterwards and that
// Repair heals it: a rewrite reseals only what its edit changed, so a
// silent flip its dump captured never becomes the expected state.
func flipAndExpectForeign(t *testing.T, tb *testbed, c *Customizer, pn uint64, rewrite func() error) {
	t.Helper()
	p, err := tb.m.Process(c.PID())
	if err != nil {
		t.Fatal(err)
	}
	if !p.Mem().FlipBits(pn*kernel.PageSize+kernel.PageSize-1, 0x01) {
		t.Fatal("FlipBits refused the text page")
	}
	if err := rewrite(); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Attest()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Mismatches) != 1 || rep.Mismatches[0].Page != pn || rep.Mismatches[0].Verdict != PageForeign {
		t.Fatalf("mismatches = %+v, want page %#x foreign", rep.Mismatches, pn)
	}
	if rs, err := c.Repair(rep, true); err != nil || rs.Repaired != 1 {
		t.Fatalf("repair: %+v, %v", rs, err)
	}
	if rep, err := c.Attest(); err != nil || !rep.Clean() {
		t.Fatalf("post-repair attest: %v, %+v", err, rep.Mismatches)
	}
	if got := tb.request(t, "GET /\n"); !strings.Contains(got, "200") {
		t.Fatalf("GET -> %q, want 200", got)
	}
}

// TestAttestFlipSurvivesFullDumpRollback: a text page flipped before a
// rewrite that rolls back stays foreign. The rollback restores the
// dump, flip included, and moves no expected digest.
func TestAttestFlipSurvivesFullDumpRollback(t *testing.T) {
	tb := newTestbed(t, webserv.Config{Name: "lighttpd", Port: 9328})
	blocks := tb.profileFeatures(t, wantedReqs, undesiredReqs)
	c, err := New(tb.m, tb.proc.PID(), Options{RedirectTo: tb.errPathAddr(t)})
	if err != nil {
		t.Fatal(err)
	}
	pn := untouchedTextPage(t, c, entrySpans(blocks))
	flipAndExpectForeign(t, tb, c, pn, func() error {
		inj := faultinject.New(1)
		inj.FailAt(faultinject.PrefixRestore, 1)
		tb.m.SetFaultHook(inj)
		defer tb.m.SetFaultHook(nil)
		if _, err := c.DisableBlocks("webdav-write", blocks, PolicyBlockEntry); !errors.Is(err, ErrRolledBack) {
			return fmt.Errorf("rewrite error = %v, want rolled back", err)
		}
		return nil
	})
	tb.assertServing(t)
}

// TestAttestFlipSurvivesFullDumpCommit: a text page the edit does not
// touch is flipped, then a rewrite that follows a rolled-back one
// commits. Its dump takes the live, flipped page, so the flip stays
// foreign.
func TestAttestFlipSurvivesFullDumpCommit(t *testing.T) {
	tb := newTestbed(t, webserv.Config{Name: "lighttpd", Port: 9329})
	blocks := tb.profileFeatures(t, wantedReqs, undesiredReqs)
	c, err := New(tb.m, tb.proc.PID(), Options{RedirectTo: tb.errPathAddr(t)})
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(1)
	inj.FailAt(faultinject.PrefixRestore, 1)
	tb.m.SetFaultHook(inj)
	if _, err := c.DisableBlocks("webdav-write", blocks, PolicyBlockEntry); !errors.Is(err, ErrRolledBack) {
		t.Fatalf("rewrite error = %v, want rolled back", err)
	}
	tb.m.SetFaultHook(nil)

	pn := untouchedTextPage(t, c, entrySpans(blocks))
	flipAndExpectForeign(t, tb, c, pn, func() error {
		_, err := c.DisableBlocks("webdav-write", blocks, PolicyBlockEntry)
		return err
	})
	if got := tb.request(t, "PUT /f data\n"); !strings.Contains(got, "403") {
		t.Fatalf("PUT after commit -> %q, want 403", got)
	}
}

// TestAttestFlipSurvivesCommitAfterCommit: a text page the edit does
// not touch is flipped after a committed rewrite, then the next rewrite
// commits too. Its dump takes the live, flipped page, not the clean one
// the previous commit restored, so the flip stays foreign.
func TestAttestFlipSurvivesCommitAfterCommit(t *testing.T) {
	tb := newTestbed(t, webserv.Config{Name: "lighttpd", Port: 9338})
	blocks := tb.profileFeatures(t, wantedReqs, undesiredReqs)
	c, err := New(tb.m, tb.proc.PID(), Options{RedirectTo: tb.errPathAddr(t)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.DisableBlocks("webdav-write", blocks, PolicyBlockEntry); err != nil {
		t.Fatal(err)
	}
	pn := untouchedTextPage(t, c, entrySpans(blocks))
	flipAndExpectForeign(t, tb, c, pn, func() error {
		_, err := c.EnableBlocks("webdav-write")
		return err
	})
	if got := tb.request(t, "PUT /f data\n"); !strings.Contains(got, "201") {
		t.Fatalf("PUT after re-enable -> %q, want 201", got)
	}
}

// TestAttestCommitSealsOnlyEditedPages: a committed rewrite moves the
// expected digest of the pages its edit changed and of no other. The
// first rewrite adds the handler library's text pages; PolicyUnmapPages
// drops the pages it unmaps from the oracle.
func TestAttestCommitSealsOnlyEditedPages(t *testing.T) {
	tb := newTestbed(t, webserv.Config{Name: "lighttpd", Port: 9330, InitRoutines: 200})
	for _, r := range wantedReqs {
		tb.request(t, r)
	}
	serving := tb.snapshotPhase(t, "serving")
	initBlocks := IdentifyInitBlocks(coverage.FromLog(tb.initLog), serving, "lighttpd")
	c, err := New(tb.m, tb.proc.PID(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	att0 := c.Attestation()

	stats, err := c.DisableBlocks("init", initBlocks, PolicyUnmapPages)
	if err != nil {
		t.Fatal(err)
	}
	if stats.PagesUnmapped == 0 || stats.BlocksPatched == 0 {
		t.Fatalf("unmapped %d pages, patched %d blocks: want both", stats.PagesUnmapped, stats.BlocksPatched)
	}
	att1 := c.Attestation()

	unmapped := map[uint64]bool{}
	for _, pr := range c.unmapped {
		for a := pr.start; a < pr.end; a += kernel.PageSize {
			unmapped[a/kernel.PageSize] = true
			if _, ok := att1.Pages[a/kernel.PageSize]; ok {
				t.Errorf("unmapped page %#x still in the oracle", a/kernel.PageSize)
			}
		}
	}
	_, partial := splitPageCoverage(initBlocks)
	wiped := map[uint64]bool{}
	for _, b := range partial {
		for _, pn := range spanPages([]blockSpan{{lo: b.Addr, hi: b.Addr + b.Size}}) {
			wiped[pn] = true
		}
	}
	for pn, d := range att0.Pages {
		switch {
		case unmapped[pn]:
		case wiped[pn]:
			if att1.Pages[pn] == d {
				t.Errorf("wiped page %#x kept its pre-edit digest", pn)
			}
		case att1.Pages[pn] != d:
			t.Errorf("page %#x outside the edit changed its expected digest", pn)
		}
	}

	p, err := tb.m.Process(c.PID())
	if err != nil {
		t.Fatal(err)
	}
	lib, ok := p.Mem().VMAAt(c.handler.HandlerAddr)
	if !ok {
		t.Fatal("handler library not mapped")
	}
	added := 0
	for pn := range att1.Pages {
		if _, ok := att0.Pages[pn]; ok {
			continue
		}
		if a := pn * kernel.PageSize; a < lib.Start || a >= lib.End {
			t.Errorf("page %#x joined the oracle outside the handler library", pn)
		}
		added++
	}
	if added == 0 {
		t.Error("the handler library's text pages were not sealed")
	}
	if rep, err := c.Attest(); err != nil || !rep.Clean() {
		t.Fatalf("attest after commit: %v, %+v", err, rep.Mismatches)
	}
}

// TestAttestVerifierHealSealedAtCommit: bytes the in-guest verifier
// healed between commits are carried by the next dump, so the next
// commit seals their pages even when its edit leaves them unchanged.
// Here every disabled block heals, then EnableBlocks writes the same
// original bytes back: the pages are equal in the dumped and the
// edited set, and the oracle must still expect them unpatched.
func TestAttestVerifierHealSealedAtCommit(t *testing.T) {
	tb := newTestbed(t, webserv.Config{Name: "lighttpd", Port: 9331})
	blocks := tb.profileFeatures(t,
		[]string{"GET /\n", "HEAD /\n", "PUT /f x\n"},
		[]string{"POST /\n"})
	c, err := New(tb.m, tb.proc.PID(), Options{RedirectTo: tb.errPathAddr(t), Verifier: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.DisableBlocks("post", blocks, PolicyBlockEntry); err != nil {
		t.Fatal(err)
	}
	if got := tb.request(t, "POST /\n"); !strings.Contains(got, "200") {
		t.Fatalf("POST under verifier -> %q, want 200", got)
	}
	healed, err := c.FalseRemovals()
	if err != nil || len(healed) != len(blocks) {
		t.Fatalf("healed %d of %d blocks: %v", len(healed), len(blocks), err)
	}
	if _, err := c.EnableBlocks("post"); err != nil {
		t.Fatal(err)
	}
	if rep, err := c.Attest(); err != nil || !rep.Clean() {
		t.Fatalf("attest after enable: %v, %+v", err, rep.Mismatches)
	}
}
