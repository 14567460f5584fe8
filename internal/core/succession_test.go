package core

import (
	"errors"
	"strings"
	"testing"

	"github.com/dynacut/dynacut/internal/apps/webserv"
	"github.com/dynacut/dynacut/internal/coverage"
	"github.com/dynacut/dynacut/internal/faultinject"
	"github.com/dynacut/dynacut/internal/kernel"
)

// TestBlockCacheUnmapRefusesHandoff: a cut that unmaps whole pages
// changes the VMA table, so its restored guest starts with an empty
// translation cache, while a cut that only patches bytes inherits the
// killed guest's cache.
func TestBlockCacheUnmapRefusesHandoff(t *testing.T) {
	tb := newTestbedExec(t, webserv.Config{Name: "lighttpd", Port: 8094, InitRoutines: 200}, kernel.ModeTranslate)
	for _, r := range wantedReqs {
		tb.request(t, r)
	}
	serving := tb.snapshotPhase(t, "serving")
	initBlocks := IdentifyInitBlocks(coverage.FromLog(tb.initLog), serving, "lighttpd")
	c, err := New(tb.m, tb.proc.PID(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The first rewrite injects the handler library: a layout change.
	if _, err := c.DisableBlocks("entry", initBlocks[:1], PolicyBlockEntry); err != nil {
		t.Fatal(err)
	}
	if got := tb.m.BlockCacheStats().Inherited; got != 0 {
		t.Fatalf("handler injection changed the layout, yet %d blocks were inherited", got)
	}
	tb.request(t, "GET /\n")
	if _, err := c.EnableBlocks("entry"); err != nil {
		t.Fatal(err)
	}
	inherited := tb.m.BlockCacheStats().Inherited
	if inherited == 0 {
		t.Fatal("re-enabling, a byte patch, inherited nothing")
	}
	tb.request(t, "GET /\n")

	stats, err := c.DisableBlocks("init", initBlocks, PolicyUnmapPages)
	if err != nil {
		t.Fatalf("unmap: %v", err)
	}
	if stats.PagesUnmapped == 0 {
		t.Fatal("init chain did not fully cover a page; nothing unmapped")
	}
	if got := tb.m.BlockCacheStats().Inherited; got != inherited {
		t.Fatalf("a cut that unmapped %d pages inherited %d blocks", stats.PagesUnmapped, got-inherited)
	}
	if got := tb.request(t, "GET /\n"); !strings.Contains(got, "200") {
		t.Fatalf("GET after unmap -> %q", got)
	}
}

// TestBlockCacheRestoreImagesCountsOnce: RestoreImages hands the killed
// guest's cache to the restored one, and the machine's cumulative
// counters neither lose nor double the moved cache's counts.
func TestBlockCacheRestoreImagesCountsOnce(t *testing.T) {
	tb := newTestbedExec(t, webserv.Config{Name: "lighttpd", Port: 8095}, kernel.ModeTranslate)
	c, err := New(tb.m, tb.proc.PID(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	set, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	tb.request(t, "GET /\n")
	before := tb.m.BlockCacheStats()
	if _, err := c.RestoreImages(set); err != nil {
		t.Fatal(err)
	}
	after := tb.m.BlockCacheStats()
	if after.Inherited == 0 {
		t.Fatalf("the restored guest inherited nothing: %+v", after)
	}
	if after.Translations != before.Translations || after.Hits != before.Hits || after.Misses != before.Misses {
		t.Fatalf("counters moved across the handoff: before %+v, after %+v", before, after)
	}
	if got := tb.request(t, "GET /\n"); !strings.Contains(got, "200") {
		t.Fatalf("GET after RestoreImages -> %q", got)
	}
}

// TestBlockCacheHealthRollbackInherits: when the health check fails, the
// originals' cache has already moved to the unhealthy restored tree;
// the rollback's restored guest takes it over from there, so a wanted
// request afterwards runs entirely on inherited blocks.
func TestBlockCacheHealthRollbackInherits(t *testing.T) {
	tb := newTestbedExec(t, webserv.Config{Name: "lighttpd", Port: 8096}, kernel.ModeTranslate)
	blocks := tb.profileFeatures(t, wantedReqs, undesiredReqs)
	c, err := New(tb.m, tb.proc.PID(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The first rewrite injects the handler library, so the guest the
	// faulty one replaces has the layout every later restore keeps.
	if _, err := c.DisableBlocks("webdav-write", blocks, PolicyBlockEntry); err != nil {
		t.Fatal(err)
	}
	for _, r := range wantedReqs {
		tb.request(t, r)
	}
	in := faultinject.New(1)
	in.FailAt(faultinject.SiteHealth, 1)
	tb.m.SetFaultHook(in)
	_, err = c.EnableBlocks("webdav-write")
	tb.m.SetFaultHook(nil)
	if !errors.Is(err, ErrRolledBack) {
		t.Fatalf("health fault: %v, want ErrRolledBack", err)
	}
	root, err := tb.m.Process(c.PID())
	if err != nil {
		t.Fatal(err)
	}
	before := root.Mem().BlockCacheStats()
	if before.Inherited == 0 {
		t.Fatalf("the rolled-back guest inherited nothing: %+v", before)
	}
	if got := tb.request(t, wantedReqs[0]); !strings.Contains(got, "200") {
		t.Fatalf("%q after rollback -> %q", wantedReqs[0], got)
	}
	if after := root.Mem().BlockCacheStats(); after.Translations != before.Translations {
		t.Fatalf("a wanted request after rollback recorded %d blocks", after.Translations-before.Translations)
	}
}

// TestBlockCacheRollbackFailedRestoreInherits: a cut whose restore and
// rollback restore both fail loses the guest but leaves its dead tree
// in the process table; the pristine RestoreImages that recovers it
// takes that tree's cache over and removes it.
func TestBlockCacheRollbackFailedRestoreInherits(t *testing.T) {
	tb := newTestbedExec(t, webserv.Config{Name: "lighttpd", Port: 8106}, kernel.ModeTranslate)
	blocks := tb.profileFeatures(t, wantedReqs, undesiredReqs)
	c, err := New(tb.m, tb.proc.PID(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	pristine, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range wantedReqs {
		tb.request(t, r)
	}
	oldRoot := c.PID()
	in := faultinject.New(1)
	in.FailTransient(faultinject.PrefixRestore, 1, 2)
	tb.m.SetFaultHook(in)
	if _, err := c.DisableBlocks("webdav-write", blocks, PolicyBlockEntry); !errors.Is(err, ErrRollbackFailed) {
		t.Fatalf("restore and rollback faults: %v, want ErrRollbackFailed", err)
	}
	before := tb.m.BlockCacheStats().Inherited
	if failed, err := c.RestoreImages(pristine); err != nil || len(failed) != 0 {
		t.Fatalf("RestoreImages: %v (failed tries %v)", err, failed)
	}
	if _, err := tb.m.Process(oldRoot); err == nil {
		t.Fatalf("the lost guest's root %d is still in the process table", oldRoot)
	}
	if got := tb.m.BlockCacheStats().Inherited; got <= before {
		t.Fatalf("the restored guest inherited nothing from the lost one (%d -> %d)", before, got)
	}
	if got := tb.request(t, "GET /\n"); !strings.Contains(got, "200") {
		t.Fatalf("GET after RestoreImages -> %q", got)
	}
}

// TestBlockCacheRestoreImagesRetryInherits: a RestoreImages try that
// fails mid-restore leaves the killed guest in the table, so the retry
// that succeeds still inherits its cache, and the failed try is
// reported.
func TestBlockCacheRestoreImagesRetryInherits(t *testing.T) {
	tb := newTestbedExec(t, webserv.Config{Name: "lighttpd", Port: 8107}, kernel.ModeTranslate)
	c, err := New(tb.m, tb.proc.PID(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	set, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	tb.request(t, "GET /\n")
	before := tb.m.BlockCacheStats().Inherited
	in := faultinject.New(1)
	in.FailAt(faultinject.SiteRestorePages, 1)
	tb.m.SetFaultHook(in)
	failed, err := c.RestoreImages(set)
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 1 || !errors.Is(failed[0], faultinject.ErrInjected) {
		t.Fatalf("failed tries = %v, want the one injected fault", failed)
	}
	if got := tb.m.BlockCacheStats().Inherited; got <= before {
		t.Fatalf("the retried restore inherited nothing (%d -> %d)", before, got)
	}
	if got := tb.request(t, "GET /\n"); !strings.Contains(got, "200") {
		t.Fatalf("GET after RestoreImages -> %q", got)
	}
}

// TestBlockCacheRestoreImagesLostThenRecovered: when every try fails,
// RestoreImages reports each one and the guest is gone; a later call
// still finds the dead tree, inherits its cache and reaps it.
func TestBlockCacheRestoreImagesLostThenRecovered(t *testing.T) {
	tb := newTestbedExec(t, webserv.Config{Name: "lighttpd", Port: 8108}, kernel.ModeTranslate)
	c, err := New(tb.m, tb.proc.PID(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	set, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	tb.request(t, "GET /\n")
	oldRoot := c.PID()
	in := faultinject.New(1)
	in.FailTransient(faultinject.PrefixRestore, 1, -1)
	tb.m.SetFaultHook(in)
	failed, err := c.RestoreImages(set)
	if err == nil || len(failed) != restoreTries {
		t.Fatalf("RestoreImages under hard faults: %v after %d failed tries, want an error after %d", err, len(failed), restoreTries)
	}
	if n := len(tb.m.Processes()); n != 0 {
		t.Fatalf("%d live processes after every restore failed", n)
	}
	tb.m.SetFaultHook(nil)
	before := tb.m.BlockCacheStats().Inherited
	if failed, err := c.RestoreImages(set); err != nil || len(failed) != 0 {
		t.Fatalf("RestoreImages: %v (failed tries %v)", err, failed)
	}
	if _, err := tb.m.Process(oldRoot); err == nil {
		t.Fatalf("the lost guest's root %d is still in the process table", oldRoot)
	}
	if got := tb.m.BlockCacheStats().Inherited; got <= before {
		t.Fatalf("the recovered guest inherited nothing (%d -> %d)", before, got)
	}
	if got := tb.request(t, "GET /\n"); !strings.Contains(got, "200") {
		t.Fatalf("GET after recovery -> %q", got)
	}
}
