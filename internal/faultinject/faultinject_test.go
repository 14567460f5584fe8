package faultinject

import (
	"errors"
	"testing"
)

func TestFailAtCountsHits(t *testing.T) {
	in := New(1)
	in.FailAt(SiteRestoreProc, 3)
	for i := 1; i <= 5; i++ {
		err := in.Fault(SiteRestoreProc, i)
		if i == 3 {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("hit %d: want injected fault, got %v", i, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("hit %d: unexpected fault %v", i, err)
		}
	}
	if got := in.Hits(SiteRestoreProc); got != 5 {
		t.Errorf("Hits = %d, want 5", got)
	}
	if got := in.Injected(); got != 1 {
		t.Errorf("Injected = %d, want 1", got)
	}
}

func TestFailTransientWindow(t *testing.T) {
	in := New(1)
	in.FailTransient(PrefixRestore, 2, 2) // hits 2 and 3 fail
	var fails []int
	for i := 1; i <= 5; i++ {
		// Different sites sharing the prefix count into the same plan.
		site := SiteRestoreProc
		if i%2 == 0 {
			site = SiteRestoreVMA
		}
		if in.Fault(site, 0) != nil {
			fails = append(fails, i)
		}
	}
	if len(fails) != 2 || fails[0] != 2 || fails[1] != 3 {
		t.Errorf("failed hits = %v, want [2 3]", fails)
	}
}

func TestHardFaultNeverRecovers(t *testing.T) {
	in := New(1)
	in.FailTransient(SiteHealth, 1, -1)
	for i := 0; i < 4; i++ {
		if in.Fault(SiteHealth, 0) == nil {
			t.Fatalf("hit %d: hard fault did not fire", i+1)
		}
	}
}

func TestPrefixDoesNotMatchOtherSites(t *testing.T) {
	in := New(1)
	in.FailAt("criu.dump.", 1)
	if err := in.Fault(SiteRestoreProc, 0); err != nil {
		t.Errorf("restore site matched dump prefix: %v", err)
	}
	if err := in.Fault(SiteDumpProc, 0); err == nil {
		t.Error("dump site did not match dump prefix")
	}
}

func TestEventLogRecordsDecisions(t *testing.T) {
	in := New(99)
	in.FailAt(SiteDumpProc, 1)
	in.Fault(SiteDumpProc, 1)
	in.Fault(SiteDumpPageMap, 1)
	evs := in.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %d, want 2", len(evs))
	}
	if !evs[0].Fail || evs[0].Site != SiteDumpProc {
		t.Errorf("event 0 = %+v", evs[0])
	}
	if evs[1].Fail {
		t.Errorf("event 1 should be a pass: %+v", evs[1])
	}
}
