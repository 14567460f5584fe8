package core

import (
	"testing"

	"github.com/dynacut/dynacut/internal/apps/webserv"
	"github.com/dynacut/dynacut/internal/coverage"
	"github.com/dynacut/dynacut/internal/kernel"
	"github.com/dynacut/dynacut/internal/trace"
)

// TestAutoNudgeDetectsInitEnd boots the web server WITHOUT relying on
// its explicit nudge: the first accept syscall marks the end of
// initialization, and the init coverage snapshot taken there must
// match what the explicit nudge produces (the same init-only set).
func TestAutoNudgeDetectsInitEnd(t *testing.T) {
	app, err := webserv.Build(webserv.Config{Name: "lighttpd", Port: 8095, InitRoutines: 12})
	if err != nil {
		t.Fatal(err)
	}
	m := kernel.NewMachine()
	col := trace.NewCollector(app.Config.Name)
	m.SetTracer(col)
	p, err := m.Load(app.Exe, app.Libc)
	if err != nil {
		t.Fatal(err)
	}

	// Explicit nudge still fires (the guest calls it); record both
	// boundaries and compare.
	var explicitInit, autoInit *coverage.Graph
	m.SetNudgeFunc(func(pid int, arg uint64) {
		if explicitInit == nil {
			explicitInit = coverage.FromLog(col.Snapshot(p.Modules(), "init-explicit"))
		}
	})
	an := NewAutoNudge(m, DefaultInitEndSyscall, func(pid int) {
		autoInit = coverage.FromLog(col.Snapshot(p.Modules(), "init-auto"))
	})

	ok := m.RunUntil(func() bool { return an.fired && explicitInit != nil }, 10_000_000)
	if !ok {
		t.Fatalf("boot detection failed: auto=%v explicit=%v", an.fired, explicitInit != nil)
	}
	if autoInit == nil {
		t.Fatal("auto snapshot missing")
	}

	// The automatic boundary fires slightly *after* the explicit one
	// (nudge precedes the accept loop), so auto ⊇ explicit, and the
	// difference is tiny (the nudge wrapper and accept-entry blocks).
	missing := coverage.Diff(explicitInit, autoInit)
	if missing.Count() != 0 {
		t.Errorf("auto boundary lost %d blocks the explicit one had", missing.Count())
	}
	extra := coverage.Diff(autoInit, explicitInit)
	if extra.Count() > 8 {
		t.Errorf("auto boundary includes %d extra blocks; boundary too late", extra.Count())
	}
}

// TestAutoNudgeFiresOnce: the hook must uninstall itself after the
// first trigger.
func TestAutoNudgeFiresOnce(t *testing.T) {
	app, err := webserv.Build(webserv.Config{Name: "lighttpd", Port: 8096})
	if err != nil {
		t.Fatal(err)
	}
	m := kernel.NewMachine()
	p, err := m.Load(app.Exe, app.Libc)
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	an := NewAutoNudge(m, DefaultInitEndSyscall, func(pid int) { fired++ })
	m.RunUntil(func() bool { return an.fired }, 10_000_000)
	// Drive a few requests: each accept must NOT re-fire.
	for i := 0; i < 3; i++ {
		conn, err := m.Dial(8096)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write([]byte("GET /\n")); err != nil {
			t.Fatal(err)
		}
		m.RunUntil(func() bool { return len(conn.ReadAllPeek()) > 0 }, 2_000_000)
	}
	if fired != 1 {
		t.Fatalf("fired %d times", fired)
	}
	if p.Exited() {
		t.Fatal("server died")
	}
}
