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
	if err := c.RestoreImages(set); err != nil {
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
	in.FailOnce(faultinject.SiteHealth)
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
