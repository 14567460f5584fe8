package kernel

import (
	"errors"
	"testing"
)

// bootEcho loads the echo server from kernel_test.go and lets it
// block in accept.
func bootEcho(t *testing.T) (*Machine, *Process) {
	t.Helper()
	m := NewMachine()
	exe := buildExe(t, "echo", echoServerSrc)
	p, err := m.Load(exe)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(10000)
	return m, p
}

// TestExchangeOutcomes: one exchange per outcome the callers map —
// a complete response, an idle guest that never answers, a guest that
// closes without a byte, and a budget that runs out first.
func TestExchangeOutcomes(t *testing.T) {
	m, _ := bootEcho(t)
	start := m.Clock()
	resp, lastByte, err := m.Exchange(8080, []byte("hello"), 1_000_000)
	if err != nil || string(resp) != "hello" {
		t.Fatalf("echo = %q, %v", resp, err)
	}
	if lastByte <= start || lastByte > m.Clock() {
		t.Fatalf("lastByte = %d, want in (%d, %d]", lastByte, start, m.Clock())
	}
	// An empty request leaves the echo server blocked in read: the
	// machine goes idle, and the exchange ends at once without a byte.
	before := m.Clock()
	if resp, _, err := m.Exchange(8080, nil, 1_000_000); err != nil || len(resp) != 0 {
		t.Fatalf("idle guest = %q, %v; want empty, nil", resp, err)
	}
	if m.Clock()-before >= QuietTicks {
		t.Fatalf("idle exchange ran %d ticks", m.Clock()-before)
	}
	if _, _, err := m.Exchange(9999, []byte("x"), 1_000_000); !errors.Is(err, ErrNotListening) {
		t.Fatalf("dial error = %v", err)
	}

	m, _ = bootEcho(t)
	if resp, _, err := m.Exchange(8080, []byte("hello"), 10); !errors.Is(err, ErrTruncatedResponse) || len(resp) != 0 {
		t.Fatalf("tiny budget = %q, %v; want empty, ErrTruncatedResponse", resp, err)
	}

	m = NewMachine()
	if _, err := m.Load(buildExe(t, "closer", closerServerSrc)); err != nil {
		t.Fatal(err)
	}
	m.Run(10000)
	if resp, _, err := m.Exchange(8080, []byte("hello"), 1_000_000); !errors.Is(err, ErrNoResponse) || len(resp) != 0 {
		t.Fatalf("closer = %q, %v; want empty, ErrNoResponse", resp, err)
	}
}

// closerServerSrc accepts each connection and closes it unanswered.
const closerServerSrc = `
.text
.global _start
_start:
	mov r0, 4            ; socket
	syscall
	mov r8, r0
	mov r0, 5            ; bind
	mov r1, r8
	mov r2, 8080
	syscall
	mov r0, 6            ; listen
	mov r1, r8
	syscall
loop:
	mov r0, 7            ; accept
	mov r1, r8
	syscall
	mov r9, r0
	mov r0, 8            ; close unanswered
	mov r1, r9
	syscall
	jmp loop
`

func TestHostConnWriteAfterGuestExit(t *testing.T) {
	m, p := bootEcho(t)
	conn, err := m.Dial(8080)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Kill(p.PID()); err != nil {
		t.Fatal(err)
	}
	// Connection was still in the backlog when the guest died.
	if !conn.Closed() && len(conn.ReadAllPeek()) == 0 {
		// Closed() requires bClosed; the queued conn was never
		// accepted — killing the owner closes the listener, and the
		// host write still succeeds into a dead buffer. Read must
		// not block or panic.
		var buf [8]byte
		if _, err := conn.Read(buf[:]); err == nil {
			// no data, open-looking socket: acceptable degenerate case
			t.Log("read on orphaned conn returned no error (buffered queue)")
		}
	}
	if _, err := m.Dial(8080); err == nil {
		t.Fatal("Dial succeeded after listener owner died")
	}
}

func TestHostConnReadDrainsIncrementally(t *testing.T) {
	m, _ := bootEcho(t)
	conn, err := m.Dial(8080)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	m.RunUntil(func() bool { return len(conn.ReadAllPeek()) >= 6 }, 1_000_000)
	var b [2]byte
	got := ""
	for i := 0; i < 3; i++ {
		n, err := conn.Read(b[:])
		if err != nil {
			t.Fatal(err)
		}
		got += string(b[:n])
	}
	if got != "abcdef" {
		t.Fatalf("incremental read = %q", got)
	}
	if n, _ := conn.Read(b[:]); n != 0 {
		t.Fatal("extra data after drain")
	}
}

func TestHostConnCloseStopsWrites(t *testing.T) {
	m, _ := bootEcho(t)
	conn, err := m.Dial(8080)
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if _, err := conn.Write([]byte("x")); err == nil {
		t.Fatal("write after close succeeded")
	}
	if conn.c.id == 0 {
		t.Error("connection has no ID")
	}
}

func TestGuestReadSeesEOFOnHostClose(t *testing.T) {
	m := NewMachine()
	exe := buildExe(t, "eofer", `
.text
.global _start
_start:
	mov r0, 4
	syscall
	mov r8, r0
	mov r0, 5
	mov r1, r8
	mov r2, 9000
	syscall
	mov r0, 7            ; accept
	mov r1, r8
	syscall
	mov r9, r0
	mov r0, 3            ; read -> blocks until data or EOF
	mov r1, r9
	mov r2, =buf
	mov r3, 16
	syscall
	mov r1, r0           ; exit with read result (0 = clean EOF)
	mov r0, 1
	syscall
.bss
buf: .space 16
`)
	p, err := m.Load(exe)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(10000)
	conn, err := m.Dial(9000)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(10000) // guest accepts, blocks in read
	conn.Close()
	m.Run(100000)
	if !p.Exited() || p.ExitCode() != 0 {
		t.Fatalf("exit = %v/%d (want clean EOF read)", p.Exited(), p.ExitCode())
	}
}

func TestListenerBacklogOrder(t *testing.T) {
	m, _ := bootEcho(t)
	c1, err := m.Dial(8080)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := m.Dial(8080)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Write([]byte("one")); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Write([]byte("two")); err != nil {
		t.Fatal(err)
	}
	m.RunUntil(func() bool {
		return len(c1.ReadAllPeek()) >= 3 && len(c2.ReadAllPeek()) >= 3
	}, 2_000_000)
	if got := string(c1.ReadAll()); got != "one" {
		t.Errorf("c1 = %q", got)
	}
	if got := string(c2.ReadAll()); got != "two" {
		t.Errorf("c2 = %q", got)
	}
}

func TestSharedListenerSurvivesOneSiblingClosing(t *testing.T) {
	m := NewMachine()
	exe := buildExe(t, "sharer", `
.text
.global _start
_start:
	mov r0, 4
	syscall
	mov r8, r0
	mov r0, 5
	mov r1, r8
	mov r2, 9100
	syscall
	mov r0, 9            ; fork: both share the listener
	syscall
	cmp r0, 0
	je child
	; parent: close its copy, then idle — listener must stay alive
	; because the child still holds it
	mov r0, 8
	mov r1, r8
	syscall
ploop:
	mov r0, 14
	syscall
	jmp ploop
child:
	mov r0, 7            ; child accepts
	mov r1, r8
	syscall
	mov r9, r0
	mov r0, 2
	mov r1, r9
	lea r2, msg
	mov r3, 2
	syscall
	mov r0, 1
	mov r1, 0
	syscall
.rodata
msg: .ascii "hi"
`)
	if _, err := m.Load(exe); err != nil {
		t.Fatal(err)
	}
	m.Run(50000)
	conn, err := m.Dial(9100)
	if err != nil {
		t.Fatalf("listener died when parent closed its copy: %v", err)
	}
	m.RunUntil(func() bool { return len(conn.ReadAllPeek()) >= 2 }, 1_000_000)
	if got := string(conn.ReadAll()); got != "hi" {
		t.Fatalf("child response = %q", got)
	}
}

func TestAttachConnSynthesizesMissingConnection(t *testing.T) {
	m := NewMachine()
	p := m.NewRawProcess("ghost", 0)
	// Re-attach a connection ID that no longer exists: must create a
	// closed-on-far-side placeholder, not fail.
	m.AttachConn(p, 5, 999, 1234, false)
	fds := p.FDs()
	found := false
	for _, fd := range fds {
		if fd.FD == 5 && fd.Kind == FDConn && fd.ConnID == 999 {
			found = true
		}
	}
	if !found {
		t.Fatalf("synthesized conn missing: %+v", fds)
	}
}
