package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/dynacut/dynacut/internal/apps/webserv"
	"github.com/dynacut/dynacut/internal/crit"
	"github.com/dynacut/dynacut/internal/faultinject"
	"github.com/dynacut/dynacut/internal/kernel"
)

// TestRewriteSnapshotNotAliased is the regression test for the
// snapshot-aliasing bug: the pre-attempt bookkeeping snapshot used to
// alias the live saved-bytes slices, so an edit that mutated saved
// bytes in place corrupted the rollback snapshot. After a failed
// rewrite the saved bytes must be exactly what they were before it.
func TestRewriteSnapshotNotAliased(t *testing.T) {
	tb := newTestbed(t, webserv.Config{Name: "lighttpd", Port: 9200})
	blocks := tb.profileFeatures(t, wantedReqs, undesiredReqs)
	c, err := New(tb.m, tb.proc.PID(), Options{RedirectTo: tb.errPathAddr(t)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.DisableBlocks("webdav-write", blocks, PolicyBlockEntry); err != nil {
		t.Fatal(err)
	}
	if len(c.saved) == 0 {
		t.Fatal("disable saved no original bytes")
	}
	var addr uint64
	for a := range c.saved {
		addr = a
		break
	}
	want := append([]byte(nil), c.saved[addr]...)

	_, err = c.Rewrite(func(ed *crit.Editor, pids []int) error {
		// A buggy edit mutating the saved original bytes in place —
		// then failing, so the transaction must restore the snapshot.
		c.saved[addr][0] ^= 0xFF
		return errors.New("edit failed after in-place mutation")
	})
	if err == nil {
		t.Fatal("failing edit did not surface an error")
	}
	if !bytes.Equal(c.saved[addr], want) {
		t.Fatalf("rollback snapshot was aliased by the live slice: saved %v, want %v",
			c.saved[addr], want)
	}

	// The intact bytes still restore the feature end to end.
	if _, err := c.EnableBlocks("webdav-write"); err != nil {
		t.Fatal(err)
	}
	if got := tb.request(t, "PUT /after x\n"); !strings.Contains(got, "201") {
		t.Fatalf("PUT after re-enable -> %q, want 201", got)
	}
}

// TestStatsInterruptionIsMeasuredDowntime: the interruption window is
// reported as the measured kill→restored Downtime, apart from the
// phase segments — checkpoint and editing run while the guest still
// serves, so Total sums the phases and does not add Downtime again.
func TestStatsInterruptionIsMeasuredDowntime(t *testing.T) {
	s := Stats{
		Checkpoint:    5 * time.Second,
		CodeUpdate:    time.Second,
		InsertHandler: time.Second,
		Restore:       2 * time.Second,
		HealthCheck:   time.Second,
		Downtime:      2100 * time.Millisecond,
	}
	if got := s.Total(); got != 10*time.Second {
		t.Fatalf("Total() = %v, want 10s", got)
	}
}

// TestRewriteReportsDowntime: a committed rewrite reports a positive
// downtime that is bounded by the whole cycle — the checkpoint segment
// (guest still serving) is not part of it.
func TestRewriteReportsDowntime(t *testing.T) {
	tb := newTestbed(t, webserv.Config{Name: "lighttpd", Port: 9202})
	blocks := tb.profileFeatures(t, wantedReqs, undesiredReqs)
	c, err := New(tb.m, tb.proc.PID(), Options{RedirectTo: tb.errPathAddr(t)})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := c.DisableBlocks("webdav-write", blocks, PolicyBlockEntry)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Downtime <= 0 {
		t.Fatal("committed rewrite reports no downtime")
	}
	if stats.Downtime > stats.Total() {
		t.Fatalf("downtime %v exceeds the whole cycle %v", stats.Downtime, stats.Total())
	}
}

// TestIncrementalCheckpointAcrossRewrites: every rewrite's checkpoint
// takes the guest's whole page table and skips none, after a commit as
// after a rollback. A rollback restores the very set its rewrite
// dumped, so the next checkpoint takes exactly that many pages.
func TestIncrementalCheckpointAcrossRewrites(t *testing.T) {
	tb := newTestbed(t, webserv.Config{Name: "lighttpd", Port: 9201})
	blocks := tb.profileFeatures(t, wantedReqs, undesiredReqs)
	c, err := New(tb.m, tb.proc.PID(), Options{RedirectTo: tb.errPathAddr(t)})
	if err != nil {
		t.Fatal(err)
	}

	s1, err := c.DisableBlocks("webdav-write", blocks, PolicyBlockEntry)
	if err != nil {
		t.Fatal(err)
	}
	whole := func(what string, s Stats) {
		t.Helper()
		if s.PagesSkipped != 0 || s.PagesDumped == 0 || s.ImageBytes < s.PagesDumped*(kernel.PageSize+8) {
			t.Fatalf("%s: dumped=%d skipped=%d image=%d bytes, want the whole table",
				what, s.PagesDumped, s.PagesSkipped, s.ImageBytes)
		}
	}
	whole("first rewrite", s1)

	s2, err := c.EnableBlocks("webdav-write")
	if err != nil {
		t.Fatal(err)
	}
	whole("rewrite after a commit", s2)
	// The first rewrite injected the handler library, so the table
	// only grew.
	if s2.PagesDumped < s1.PagesDumped {
		t.Fatalf("rewrite after a commit dumped %d pages, the first %d", s2.PagesDumped, s1.PagesDumped)
	}

	in := faultinject.New(1)
	in.FailAt(faultinject.SiteRestorePages, 1)
	tb.m.SetFaultHook(in)
	s3, err := c.DisableBlocks("webdav-write", blocks, PolicyBlockEntry)
	tb.m.SetFaultHook(nil)
	if !errors.Is(err, ErrRolledBack) {
		t.Fatalf("injected restore fault: err = %v, want ErrRolledBack", err)
	}

	s4, err := c.DisableBlocks("webdav-write", blocks, PolicyBlockEntry)
	if err != nil {
		t.Fatal(err)
	}
	whole("rewrite after a rollback", s4)
	if s4.PagesDumped != s3.PagesDumped {
		t.Fatalf("dump after rollback took %d pages, the rolled-back set holds %d", s4.PagesDumped, s3.PagesDumped)
	}
	if got := tb.request(t, "PUT /f data\n"); !strings.Contains(got, "403") {
		t.Fatalf("PUT after disable -> %q, want 403", got)
	}
	if got := tb.request(t, "GET /\n"); !strings.Contains(got, "200") {
		t.Fatalf("GET after disable -> %q, want 200", got)
	}
}

// TestChaosParentChainSites puts the dump that follows a committed
// rewrite under the same single-fault invariant as the rest of the
// suite: each seed first commits a clean rewrite, then fails
// criu.dump.proc in the next rewrite's checkpoint, whose pages the
// commit's restore installed copy-on-write.
func TestChaosParentChainSites(t *testing.T) {
	const seedsPerSite = 20
	cases := []struct {
		name     string
		arm      func(in *faultinject.Injector)
		rollback bool
	}{
		{"dump-parent", func(in *faultinject.Injector) { in.FailAt(faultinject.SiteDumpProc, 1) }, false},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tb := newTestbed(t, webserv.Config{Name: "lighttpd", Port: uint16(9210 + ci)})
			blocks := tb.profileFeatures(t, wantedReqs, undesiredReqs)
			if len(blocks) == 0 {
				t.Fatal("no feature blocks identified")
			}
			errPath := tb.errPathAddr(t)

			for seed := int64(1); seed <= seedsPerSite; seed++ {
				c, err := New(tb.m, tb.currentRoot(t), Options{RedirectTo: errPath})
				if err != nil {
					t.Fatal(err)
				}
				// Prime: a committed rewrite restores the guest the next dump takes.
				if _, err := c.DisableBlocks("webdav-write", blocks, PolicyBlockEntry); err != nil {
					t.Fatalf("seed %d: priming disable: %v", seed, err)
				}

				in := faultinject.New(seed)
				tc.arm(in)
				tb.m.SetFaultHook(in)
				stats, err := c.EnableBlocks("webdav-write")
				tb.m.SetFaultHook(nil)

				if err == nil {
					t.Fatalf("seed %d: injected fault did not surface", seed)
				}
				if in.Injected() == 0 {
					t.Fatalf("seed %d: no fault actually fired (events: %v)", seed, in.Events())
				}
				if !errors.Is(err, faultinject.ErrInjected) {
					t.Fatalf("seed %d: error does not chain ErrInjected: %v", seed, err)
				}
				if stats.RolledBack != tc.rollback {
					t.Fatalf("seed %d: RolledBack = %v, want %v (err: %v)",
						seed, stats.RolledBack, tc.rollback, err)
				}
				if errors.Is(err, ErrRollbackFailed) {
					t.Fatalf("seed %d: rollback itself failed: %v", seed, err)
				}

				// Invariant: guest alive, feature still fully disabled.
				if got := tb.request(t, "GET /\n"); !strings.Contains(got, "200") {
					t.Fatalf("seed %d: GET -> %q, want 200", seed, got)
				}
				if got := tb.request(t, "PUT /chaos x\n"); !strings.Contains(got, "403") {
					t.Fatalf("seed %d: PUT -> %q, want 403 (feature must stay disabled)", seed, got)
				}

				// With the injector gone the re-enable commits cleanly.
				if _, err := c.EnableBlocks("webdav-write"); err != nil {
					t.Fatalf("seed %d: enable after chaos: %v", seed, err)
				}
				if got := tb.request(t, "PUT /chaos x\n"); !strings.Contains(got, "201") {
					t.Fatalf("seed %d: PUT after re-enable -> %q, want 201", seed, got)
				}
			}
		})
	}
}
