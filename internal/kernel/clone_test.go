package kernel

import (
	"bytes"
	"errors"
	"testing"

	"github.com/dynacut/dynacut/internal/delf"
)

// buildCloneFixture assembles a machine by hand: one process with a
// mapped, written page, a bound listener shared across two descriptors
// (dup semantics), one established connection, and a disk file.
func buildCloneFixture(t *testing.T) (*Machine, *Process) {
	t.Helper()
	m := NewMachine()
	p := m.NewRawProcess("guest", 0)
	if err := p.Mem().Map(VMA{Start: 0x1000, End: 0x3000, Perm: delf.PermR | delf.PermW, Name: "heap", Anon: true}); err != nil {
		t.Fatal(err)
	}
	if err := p.Mem().Write(0x1000, []byte("template")); err != nil {
		t.Fatal(err)
	}
	if err := m.AttachListener(p, 3, 8080); err != nil {
		t.Fatal(err)
	}
	// fd 4 dups fd 3 (same *fdesc, as fork would produce).
	p.fds[4] = p.fds[3]
	if p.nextFD < 5 {
		p.nextFD = 5
	}
	hc, err := m.Dial(8080)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hc.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	m.WriteFile("prog", []byte{1, 2, 3})
	m.AdvanceClock(42)
	return m, p
}

func TestCloneDeepCopiesGuestState(t *testing.T) {
	m, p := buildCloneFixture(t)
	c := m.Clone()

	if c.Clock() != m.Clock() {
		t.Errorf("clock: clone %d, template %d", c.Clock(), m.Clock())
	}
	cp, err := c.Process(p.PID())
	if err != nil {
		t.Fatalf("clone lost the process: %v", err)
	}
	got, err := cp.Mem().Read(0x1000, 8)
	if err != nil || !bytes.Equal(got, []byte("template")) {
		t.Fatalf("clone memory = %q, %v", got, err)
	}
	if blob, err := c.ReadFile("prog"); err != nil || !bytes.Equal(blob, []byte{1, 2, 3}) {
		t.Fatalf("clone disk = %v, %v", blob, err)
	}
	// The blob is not DELF: the parse error WriteFile stored travels
	// with the clone and surfaces from Binary.
	if bin, err := c.Binary("prog"); bin != nil || !errors.Is(err, delf.ErrBadFile) {
		t.Fatalf("clone Binary(prog) = %v, %v; want the parse error", bin, err)
	}

	// Divergence: writes on either side must not leak to the other.
	if err := cp.Mem().Write(0x1000, []byte("clonated")); err != nil {
		t.Fatal(err)
	}
	if got, _ := p.Mem().Read(0x1000, 8); !bytes.Equal(got, []byte("template")) {
		t.Fatalf("clone write leaked into template: %q", got)
	}
	if err := p.Mem().Write(0x2000, []byte("tmplonly")); err != nil {
		t.Fatal(err)
	}
	if _, err := cp.Mem().Read(0x2000, 8); err != nil {
		t.Fatal(err)
	}
	if got, _ := cp.Mem().Read(0x2000, 8); bytes.Equal(got, []byte("tmplonly")) {
		t.Fatalf("template write leaked into clone: %q", got)
	}
}

func TestCloneSharesPristinePagesCoW(t *testing.T) {
	m, p := buildCloneFixture(t)
	c := m.Clone()
	cp, _ := c.Process(p.PID())

	sharedBefore := cp.Mem().SharedPageCount()
	if sharedBefore == 0 {
		t.Fatal("clone shares no pages with the template")
	}
	if err := cp.Mem().Write(0x1000, []byte{0xFF}); err != nil {
		t.Fatal(err)
	}
	if got := cp.Mem().SharedPageCount(); got != sharedBefore-1 {
		t.Errorf("after one page write, shared pages = %d, want %d", got, sharedBefore-1)
	}
	// The template still reads its own byte.
	if got, _ := p.Mem().Read(0x1000, 1); got[0] != 't' {
		t.Errorf("template page mutated through CoW alias: %#x", got[0])
	}
}

func TestCloneNetworkIsIndependent(t *testing.T) {
	m, p := buildCloneFixture(t)
	c := m.Clone()

	// The clone has its own listener on the same port.
	hc, err := c.Dial(8080)
	if err != nil {
		t.Fatalf("clone listener gone: %v", err)
	}
	if _, err := hc.Write([]byte("to-clone")); err != nil {
		t.Fatal(err)
	}
	// The pre-clone pending connection was copied with its buffered
	// bytes, and draining it on the clone leaves the template's copy.
	cl, ok := c.net.listeners[8080]
	if !ok || len(cl.backlog) != 2 {
		t.Fatalf("clone backlog = %v", cl)
	}
	if string(cl.backlog[0].a2b) != "hello" {
		t.Fatalf("clone pending conn lost its bytes: %q", cl.backlog[0].a2b)
	}
	cl.backlog[0].a2b = nil
	tl := m.net.listeners[8080]
	if string(tl.backlog[0].a2b) != "hello" {
		t.Fatal("draining the clone's connection drained the template's too")
	}

	// Dup'd descriptors keep identity: killing the clone's process must
	// close its listener exactly once and not touch the template's.
	cp, _ := c.Process(p.PID())
	if cp.fds[3] != cp.fds[4] {
		t.Fatal("dup'd descriptors were split by the clone")
	}
	if err := c.Kill(p.PID()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Dial(8080); err == nil {
		t.Fatal("clone listener survived the kill")
	}
	if _, err := m.Dial(8080); err != nil {
		t.Fatalf("template listener closed by clone kill: %v", err)
	}
}

func TestCloneDoesNotCopyInstrumentation(t *testing.T) {
	m, _ := buildCloneFixture(t)
	fired := 0
	m.SetTickWatchdog(1, func(uint64) { fired++ })
	c := m.Clone()
	if c.wdFn != nil || c.tracer != nil || c.obs != nil || c.faultHook != nil {
		t.Fatal("host-side instrumentation leaked into the clone")
	}
}
