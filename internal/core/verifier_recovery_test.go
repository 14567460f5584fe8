package core

import (
	"errors"
	"strings"
	"testing"

	"github.com/dynacut/dynacut/internal/apps/webserv"
	"github.com/dynacut/dynacut/internal/coverage"
	"github.com/dynacut/dynacut/internal/crit"
	"github.com/dynacut/dynacut/internal/criu"
	"github.com/dynacut/dynacut/internal/faultinject"
)

// TestVerifierTableExhaustionRecovers fills the in-guest verifier
// table to its 256-entry capacity, proves the next verifier-tracked
// disable is refused without touching the guest, then recovers: the
// guest self-heals a misclassified feature, adoption compacts the
// freed slots out of the live vtable, and DisableBlocks under the
// verifier succeeds again (regression: before AdoptFalseRemovals
// reset the guest state, slots filled one-way across disable/adopt
// cycles and the table eventually wedged).
func TestVerifierTableExhaustionRecovers(t *testing.T) {
	tb := newTestbed(t, webserv.Config{Name: "lighttpd", Port: 8187})
	// POST is deliberately misclassified so it will trap and heal.
	postBlocks := tb.profileFeatures(t, []string{"GET /\n", "HEAD /\n"}, []string{"POST /\n"})
	if len(postBlocks) == 0 || len(postBlocks) >= maxVerifierEntries {
		t.Fatalf("unusable POST block count %d", len(postBlocks))
	}
	c, err := New(tb.m, tb.proc.PID(), Options{
		RedirectTo: tb.errPathAddr(t),
		Verifier:   true,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Fill the remaining capacity with 1-byte blocks inside the file
	// store: real, patchable guest memory that no test request
	// executes or reads, so the INT3s are inert.
	storeSym, err := tb.app.Exe.Symbol("filestore")
	if err != nil {
		t.Fatal(err)
	}
	filler := make([]coverage.AbsBlock, maxVerifierEntries-len(postBlocks))
	for i := range filler {
		filler[i] = coverage.AbsBlock{Addr: storeSym.Value + uint64(i), Size: 1}
	}
	if _, err := c.DisableBlocks("filler", filler, PolicyBlockEntry); err != nil {
		t.Fatalf("filler disable: %v", err)
	}
	if _, err := c.DisableBlocks("suspect", postBlocks, PolicyBlockEntry); err != nil {
		t.Fatalf("suspect disable: %v", err)
	}

	// The table is now full: one more tracked entry must be refused —
	// pre-commit, with the guest untouched and still serving.
	overflow := []coverage.AbsBlock{{Addr: storeSym.Value + uint64(len(filler)), Size: 1}}
	if _, err := c.DisableBlocks("overflow", overflow, PolicyBlockEntry); err == nil {
		t.Fatal("257th verifier entry accepted")
	} else if !strings.Contains(err.Error(), "verifier table full") {
		t.Fatalf("overflow error = %v, want verifier-table-full", err)
	}
	if got := tb.request(t, "GET /\n"); !strings.Contains(got, "200") {
		t.Fatalf("GET after refused overflow -> %q, want 200", got)
	}

	// The misclassified POST self-heals; every healed address frees a
	// vtable slot at adoption.
	if got := tb.request(t, "POST /\n"); !strings.Contains(got, "200") {
		t.Fatalf("POST under verifier -> %q, want 200", got)
	}
	adopted, err := c.AdoptFalseRemovals()
	if err != nil {
		t.Fatal(err)
	}
	if len(adopted) == 0 {
		t.Fatal("nothing adopted")
	}

	// The live guest table must reflect the compaction exactly.
	p, err := tb.m.Process(c.PID())
	if err != nil {
		t.Fatal(err)
	}
	vlen, err := p.Mem().ReadU64(c.handler.VTableLen)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(maxVerifierEntries - len(adopted)); vlen != want {
		t.Errorf("guest vtable_len = %d after adoption, want %d", vlen, want)
	}
	if flen, _ := p.Mem().ReadU64(c.handler.FLogLen); flen != 0 {
		t.Errorf("guest flog_len = %d after adoption, want 0", flen)
	}

	// The freed slots are reusable: verifier-tracked disables work
	// again, and the guest still serves.
	if _, err := c.DisableBlocks("overflow", overflow, PolicyBlockEntry); err != nil {
		t.Fatalf("disable after adoption freed slots: %v", err)
	}
	if got := tb.request(t, "GET /\n"); !strings.Contains(got, "200") {
		t.Fatalf("GET after recovery -> %q, want 200", got)
	}
	// And the adopted feature stays adopted: POST serves without a
	// fresh trap.
	before, _ := c.TrapHits()
	if got := tb.request(t, "POST /\n"); !strings.Contains(got, "200") {
		t.Fatalf("POST after adoption -> %q, want 200", got)
	}
	if after, _ := c.TrapHits(); after != before {
		t.Errorf("adopted POST trapped again: hits %d -> %d", before, after)
	}
}

// TestInjectHandlerUnwindsOnArmFailure: a fault between mapping the
// handler library and arming its sigaction must unwind the freshly
// inserted mapping from the image — a failed injection may not leave
// an orphaned, handle-less library behind — and a clean retry on the
// same editor must succeed.
func TestInjectHandlerUnwindsOnArmFailure(t *testing.T) {
	tb := newTestbed(t, webserv.Config{Name: "lighttpd", Port: 8188})
	in := faultinject.New(1)
	in.FailAt(faultinject.SiteInjectArm, 1)
	tb.m.SetFaultHook(in)

	set, err := criu.Dump(tb.m, tb.proc.PID(), criu.DumpOpts{ExecPages: true})
	if err != nil {
		t.Fatal(err)
	}
	ed := crit.NewEditor(set, tb.m)
	lib, err := BuildHandlerLib()
	if err != nil {
		t.Fatal(err)
	}
	pid := tb.proc.PID()
	vmasBefore, err := ed.VMAs(pid)
	if err != nil {
		t.Fatal(err)
	}

	_, err = injectHandler(ed, pid, lib, 0)
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("arm fault not surfaced: %v", err)
	}
	if strings.Contains(err.Error(), "leaked") {
		t.Fatalf("unwind reported a leak: %v", err)
	}
	if _, err := ed.FindModule(pid, HandlerLibName); err == nil {
		t.Fatal("handler module still in image after failed arm")
	}
	vmasAfter, err := ed.VMAs(pid)
	if err != nil {
		t.Fatal(err)
	}
	if len(vmasAfter) != len(vmasBefore) {
		t.Fatalf("VMA count %d -> %d: failed injection leaked mappings",
			len(vmasBefore), len(vmasAfter))
	}
	for _, v := range vmasAfter {
		if strings.HasPrefix(v.Name, HandlerLibName+":") {
			t.Fatalf("leaked handler VMA %q [%#x,%#x)", v.Name, v.Start, v.End)
		}
	}
	// The sigaction must not have been armed on the half-injected
	// image either.
	pi, err := set.Proc(pid)
	if err != nil {
		t.Fatal(err)
	}
	for _, sig := range pi.Core.Sigs {
		if sig.Signo == 5 && sig.Handler != 0 {
			t.Fatalf("SIGTRAP sigaction armed (%#x) despite failed injection", sig.Handler)
		}
	}

	// The unwound image is healthy: a clean retry succeeds and every
	// export resolves.
	h, err := injectHandler(ed, pid, lib, 0)
	if err != nil {
		t.Fatalf("retry after unwind: %v", err)
	}
	for name, addr := range map[string]uint64{
		"handler": h.HandlerAddr, "restorer": h.RestorerAddr,
		"hits": h.HitsAddr, "vtable": h.VTable, "flog": h.FLog,
	} {
		if addr == 0 {
			t.Errorf("retry left export %q unresolved", name)
		}
	}
	if err := set.Validate(tb.m); err != nil {
		t.Fatalf("image set invalid after unwind+retry: %v", err)
	}
	// lib is the shared library: neither injection nor unwind wrote it.
	CheckHandlerLibIntact(t)
}

// TestDisableRetriesThroughArmFault: end-to-end, a transient arm
// fault inside DisableBlocks is retried by the rewrite transaction
// and commits with exactly one handler mapping — the unwind keeps
// attempt N's leak out of attempt N+1's images.
func TestDisableRetriesThroughArmFault(t *testing.T) {
	tb := newTestbed(t, webserv.Config{Name: "lighttpd", Port: 8189})
	blocks := tb.profileFeatures(t, wantedReqs, undesiredReqs)
	in := faultinject.New(2)
	in.FailAt(faultinject.SiteInjectArm, 1)
	tb.m.SetFaultHook(in)

	c, err := New(tb.m, tb.proc.PID(), Options{
		RedirectTo:  tb.errPathAddr(t),
		MaxAttempts: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := c.DisableBlocks("webdav", blocks, PolicyBlockEntry)
	if err != nil {
		t.Fatalf("disable with transient arm fault: %v", err)
	}
	if stats.Attempts != 2 {
		t.Errorf("attempts = %d, want 2 (first arm faulted)", stats.Attempts)
	}
	if got := tb.request(t, "PUT /f x\n"); !strings.Contains(got, "403") {
		t.Fatalf("PUT after disable -> %q, want 403", got)
	}
	tb.m.Run(1000)
	// Exactly one handler module in the committed guest.
	procs := tb.m.Processes()
	if len(procs) == 0 {
		t.Fatal("guest died")
	}
	n := 0
	for _, mod := range procs[0].Modules() {
		if mod.Name == HandlerLibName {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("%d handler modules mapped, want exactly 1", n)
	}
}
