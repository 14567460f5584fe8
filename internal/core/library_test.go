package core

import (
	"strings"
	"testing"

	"github.com/dynacut/dynacut/internal/apps/webserv"
	"github.com/dynacut/dynacut/internal/coverage"
	"github.com/dynacut/dynacut/internal/kernel"
)

// TestLibraryCodeCustomization exercises the paper's §5 extension:
// customizing *shared library* code, not just the application binary.
// The libc-like library carries initialization-only code (libc_init,
// mirroring glibc's startup work); after boot it is dead weight and
// can be wiped from the process image like any other init code.
func TestLibraryCodeCustomization(t *testing.T) {
	tb := newTestbed(t, webserv.Config{Name: "lighttpd", Port: 8090})
	for _, r := range wantedReqs {
		tb.request(t, r)
	}
	serving := tb.snapshotPhase(t, "serving")

	// Same diff as always, but filtered to the library module.
	libBlocks := IdentifyInitBlocks(coverage.FromLog(tb.initLog), serving, "libc.so")
	if len(libBlocks) == 0 {
		t.Fatal("no init-only blocks found inside libc.so")
	}

	c, err := New(tb.m, tb.proc.PID(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := c.DisableBlocks("libc-init", libBlocks, PolicyWipeBlocks)
	if err != nil {
		t.Fatalf("wipe libc init: %v", err)
	}
	if stats.BlocksPatched != len(libBlocks) {
		t.Errorf("patched %d, want %d", stats.BlocksPatched, len(libBlocks))
	}

	// The serving path (which calls write/read/accept/... in the same
	// library) is untouched.
	for _, r := range wantedReqs {
		if got := tb.request(t, r); got == "" {
			t.Fatalf("no response to %q after libc customization", r)
		}
	}
	if got := tb.request(t, "GET /\n"); !strings.Contains(got, "200") {
		t.Fatalf("GET -> %q", got)
	}

	// libc_init itself is now INT3 in the live process.
	p := tb.m.Processes()[0]
	var mod kernel.Module
	for _, m := range p.Modules() {
		if m.Contains(0x10000000) {
			mod = m
		}
	}
	if mod.Name != "libc.so" {
		t.Fatalf("libc module lookup: %v", mod)
	}
	lib := tb.app.Libc
	sym, err := lib.Symbol("libc_init")
	if err != nil {
		t.Fatal(err)
	}
	lo, _ := lib.ImageSpan()
	addr := mod.Lo - lo + sym.Value
	b, err := p.Mem().Read(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	if b[0] != 0xCC {
		t.Errorf("libc_init first byte = %#x, want CC", b[0])
	}
}

// TestIdentifyHelpers pins down the identification set arithmetic on
// hand-built graphs.
func TestIdentifyHelpers(t *testing.T) {
	mkLog := func(blocks ...coverage.Block) *coverage.Graph {
		g := coverage.NewGraph()
		for _, b := range blocks {
			g.Add(b)
		}
		return g
	}
	undesired := mkLog(
		coverage.Block{Module: "app", Off: 0x10, Size: 5},
		coverage.Block{Module: "app", Off: 0x20, Size: 5},
		coverage.Block{Module: "libc.so", Off: 0x30, Size: 5},
	)
	wanted := mkLog(coverage.Block{Module: "app", Off: 0x10, Size: 5})
	blocks := IdentifyFeatureBlocks(undesired, wanted, "app")
	// Only app:0x20 survives: 0x10 is shared, libc is filtered.
	if len(blocks) != 1 {
		t.Fatalf("feature blocks = %+v", blocks)
	}
	// Module base unknown for hand-built graphs: offsets pass through.
	if blocks[0].Addr != 0x20 {
		t.Errorf("block addr = %#x", blocks[0].Addr)
	}

	initG := mkLog(
		coverage.Block{Module: "app", Off: 0x100, Size: 3},
		coverage.Block{Module: "app", Off: 0x200, Size: 3},
	)
	servingG := mkLog(coverage.Block{Module: "app", Off: 0x200, Size: 3})
	initOnly := IdentifyInitBlocks(initG, servingG, "app")
	if len(initOnly) != 1 || initOnly[0].Addr != 0x100 {
		t.Fatalf("init blocks = %+v", initOnly)
	}
}
