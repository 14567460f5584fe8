package core_test

import (
	"testing"

	"github.com/dynacut/dynacut/internal/apps/webserv"
	"github.com/dynacut/dynacut/internal/core"
	"github.com/dynacut/dynacut/internal/fleet"
	"github.com/dynacut/dynacut/internal/kernel"
)

// TestFleetSharesHandlerLibUnmutated: every replica's customizer holds
// the one process-wide handler library. A rollout whose two workers
// inject it into replicas at the same time (under -race in the chaos
// gate) leaves it byte-identical to a freshly built library.
func TestFleetSharesHandlerLibUnmutated(t *testing.T) {
	app, err := webserv.Build(webserv.Config{Name: "lighttpd", Port: 8080})
	if err != nil {
		t.Fatal(err)
	}
	m := kernel.NewMachine()
	p, err := m.Load(app.Exe, app.Libc)
	if err != nil {
		t.Fatal(err)
	}
	booted := false
	m.SetNudgeFunc(func(int, uint64) { booted = true })
	if !m.RunUntil(func() bool { return booted }, 10_000_000) {
		t.Fatal("boot: nudge never fired")
	}
	f, err := fleet.New(m, p.PID(), fleet.Config{Replicas: 4, Workers: 2, WaveSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Rollout(func(r *fleet.Replica) (core.Stats, error) { return r.Cust.InstallHandler() })
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Committed(); n != 4 {
		t.Fatalf("%d of 4 replicas installed the handler", n)
	}
	core.CheckHandlerLibIntact(t)
}
