package kernel

import (
	"errors"
	"fmt"
)

// Virtual TCP. Connections are in-memory duplex byte queues between a
// guest socket and either another guest or a host-side client created
// with Machine.Dial. Each established connection carries a stable ID
// so that checkpoint/restore can re-attach it (the TCP_REPAIR
// analogue the paper relies on for rewriting live servers).

// Network errors.
var (
	ErrPortInUse    = errors.New("kernel: port already bound")
	ErrNotListening = errors.New("kernel: no listener on port")
	ErrConnClosed   = errors.New("kernel: connection closed")
	// ErrNoResponse: the guest closed an exchange's connection without
	// sending a byte.
	ErrNoResponse = errors.New("kernel: no response from guest")
	// ErrTruncatedResponse: an exchange's budget ran out while the
	// guest was still writing (connection open, no quiet window). The
	// partial body is returned alongside it, so callers can tell "slow
	// but correct" from "served and complete".
	ErrTruncatedResponse = errors.New("kernel: response truncated by request budget")
)

type network struct {
	listeners map[uint16]*listener
	conns     map[uint64]*conn
	nextConn  uint64
}

func newNetwork() *network {
	return &network{
		listeners: map[uint16]*listener{},
		conns:     map[uint64]*conn{},
	}
}

type listener struct {
	port    uint16
	backlog []*conn
	closed  bool
}

// conn is one established connection. Side A is the dialing side
// (host client or guest connect), side B the accepting guest.
type conn struct {
	id      uint64
	port    uint16
	a2b     []byte // written by A, read by B
	b2a     []byte // written by B, read by A
	aClosed bool
	bClosed bool
}

func (n *network) newConn(port uint16) *conn {
	n.nextConn++
	c := &conn{id: n.nextConn, port: port}
	n.conns[c.id] = c
	return c
}

func (n *network) bind(port uint16) (*listener, error) {
	if _, ok := n.listeners[port]; ok {
		return nil, fmt.Errorf("%w: %d", ErrPortInUse, port)
	}
	l := &listener{port: port}
	n.listeners[port] = l
	return l, nil
}

func (n *network) closeListener(l *listener) {
	if !l.closed {
		l.closed = true
		delete(n.listeners, l.port)
	}
}

// HostConn is the host-side endpoint of a connection into a guest
// server: the "remote attacker / benchmark client" of the paper's
// threat model and experiments.
type HostConn struct {
	m *Machine
	c *conn
}

// Dial connects a host-side client to the guest listener on port.
// The connection is queued until the guest accepts it.
func (m *Machine) Dial(port uint16) (*HostConn, error) {
	l, ok := m.net.listeners[port]
	if !ok || l.closed {
		return nil, fmt.Errorf("%w: %d", ErrNotListening, port)
	}
	c := m.net.newConn(port)
	l.backlog = append(l.backlog, c)
	return &HostConn{m: m, c: c}, nil
}

// Write queues data toward the guest.
func (hc *HostConn) Write(b []byte) (int, error) {
	if hc.c.aClosed {
		return 0, ErrConnClosed
	}
	hc.c.a2b = append(hc.c.a2b, b...)
	return len(b), nil
}

// Read drains whatever the guest has written so far; it never blocks.
// It returns 0, nil when no data is pending and the peer is open, and
// 0, ErrConnClosed once the guest side has closed and the buffer is
// empty.
func (hc *HostConn) Read(b []byte) (int, error) {
	if len(hc.c.b2a) == 0 {
		if hc.c.bClosed {
			return 0, ErrConnClosed
		}
		return 0, nil
	}
	n := copy(b, hc.c.b2a)
	hc.c.b2a = hc.c.b2a[n:]
	return n, nil
}

// ReadAllPeek returns the currently buffered guest output without
// draining it (useful in RunUntil predicates).
func (hc *HostConn) ReadAllPeek() []byte {
	return hc.c.b2a
}

// ReadAll drains all currently buffered guest output.
func (hc *HostConn) ReadAll() []byte {
	out := hc.c.b2a
	hc.c.b2a = nil
	return out
}

// Close shuts the host side.
func (hc *HostConn) Close() {
	hc.c.aClosed = true
}

// Closed reports whether the guest side has closed the connection.
func (hc *HostConn) Closed() bool {
	return hc.c.bClosed && len(hc.c.b2a) == 0
}

// QuietTicks is the quiet window of an Exchange: once a response has
// bytes, a window this long with no new byte ends it. It must exceed
// the longest computation a guest performs between two segments of
// one response.
const QuietTicks = 50_000

// Exchange is the synchronous host client: it dials port, sends req
// and runs the machine until the response is complete, spending at
// most budget ticks on the whole exchange. It runs until the first
// byte or a close, then grants QuietTicks windows for as long as
// bytes keep arriving. The response is complete on a close, on a full
// quiet window, or when the machine retires no step: a blocked guest
// can never send another byte. lastByte is the clock when the last
// byte was seen (the clock at the call if none was).
//
// A guest that closes without a byte yields ErrNoResponse; one that
// goes idle without answering yields an empty response and a nil
// error, and the caller decides what that means. When the budget runs
// out mid-response, the partial body comes with ErrTruncatedResponse.
func (m *Machine) Exchange(port uint16, req []byte, budget uint64) (resp []byte, lastByte uint64, err error) {
	hc, err := m.Dial(port)
	if err != nil {
		return nil, 0, err
	}
	defer hc.Close()
	if _, err := hc.Write(req); err != nil {
		return nil, 0, err
	}
	// Peek, never drain, while running: the peer's close is read from
	// the connection itself, so the body is handed out once at the end.
	c := hc.c
	start := m.clock
	lastByte = start
	got, quiet := 0, false
	arrived := func() bool { return len(c.b2a) > got || c.bClosed }
	m.RunUntil(arrived, budget)
	for {
		if n := len(c.b2a); n > got {
			got, lastByte = n, m.clock
		}
		used := m.clock - start
		if c.bClosed || used >= budget {
			break
		}
		window := min(QuietTicks, budget-used)
		before := m.clock
		m.RunUntil(arrived, window)
		if len(c.b2a) == got && (window == QuietTicks || m.clock == before) {
			quiet = true
			break
		}
	}
	resp = hc.ReadAll()
	switch {
	case got == 0 && c.bClosed:
		err = ErrNoResponse
	case !c.bClosed && !quiet:
		err = fmt.Errorf("%w after %d ticks (%d bytes read)", ErrTruncatedResponse, budget, got)
	}
	return resp, lastByte, err
}

// File descriptors ------------------------------------------------------

// FDKind classifies descriptor types for checkpointing.
type FDKind uint8

// Descriptor kinds.
const (
	FDStdio FDKind = iota + 1
	FDListener
	FDConn
)

type fdesc struct {
	kind FDKind
	// stdio
	stdNo int // 0, 1, 2
	// listener
	lst *listener
	// connection; guest is side B when accepted, side A when dialed out
	cn    *conn
	sideA bool
}

// FDInfo describes one open descriptor for checkpoint images.
type FDInfo struct {
	FD     int
	Kind   FDKind
	StdNo  int
	Port   uint16
	ConnID uint64
	SideA  bool
}
