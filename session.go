package dynacut

import (
	"bytes"
	"errors"
	"fmt"

	"github.com/dynacut/dynacut/internal/coverage"
	"github.com/dynacut/dynacut/internal/kernel"
	"github.com/dynacut/dynacut/internal/trace"
)

// Session packages the common profiling workflow: boot a guest server
// under the coverage tracer, capture initialization-phase coverage at
// the nudge, drive request traffic, and snapshot per-phase coverage
// graphs for the trace-diff analysis. Examples, experiments and
// benchmarks all build on it.
type Session struct {
	Machine   *Machine
	Exe       *Binary
	Port      uint16
	Collector *Collector
	// InitLog is the coverage dumped at the guest's nudge (the end of
	// initialization).
	InitLog *CoverageLog
	// LastErr records the outcome of the most recent Request /
	// MustRequest (nil on success), so flows using MustRequest's
	// lossy signature can still inspect what went wrong.
	LastErr error

	root int
}

// Session errors.
var (
	ErrBootTimeout = errors.New("dynacut: guest never finished initialization")
	// ErrNoResponse and ErrTruncatedResponse are the exchange's own
	// errors (kernel.ErrNoResponse, kernel.ErrTruncatedResponse), so
	// errors.Is holds across layers.
	ErrNoResponse        = kernel.ErrNoResponse
	ErrTruncatedResponse = kernel.ErrTruncatedResponse
)

// Guest tick budgets: boot, one Session request, one HealthProbe.
const (
	bootBudget    = 50_000_000
	requestBudget = 5_000_000
	probeBudget   = 2_000_000
)

// StartServer loads the executable plus libraries into a fresh
// machine, runs it until the guest signals end-of-init via nudge, and
// returns the profiling session.
func StartServer(exe *Binary, libs []*Binary, port uint16) (*Session, error) {
	m := NewMachine()
	col := trace.NewCollector(exe.Name)
	m.SetTracer(col)
	p, err := m.Load(exe, libs...)
	if err != nil {
		return nil, err
	}
	s := &Session{Machine: m, Exe: exe, Port: port, Collector: col, root: p.PID()}
	m.SetNudgeFunc(func(pid int, arg uint64) {
		if s.InitLog == nil {
			pr, perr := m.Process(pid)
			if perr != nil {
				return
			}
			s.InitLog = col.SnapshotAndReset(pr.Modules(), "init")
		}
	})
	if !m.RunUntil(func() bool { return s.InitLog != nil }, bootBudget) {
		return nil, fmt.Errorf("%w: exited=%v killed=%v",
			ErrBootTimeout, p.Exited(), p.KilledBy())
	}
	m.Run(10000)
	return s, nil
}

// StartServerAuto is StartServer for guests without an explicit
// nudge: the end of initialization is detected automatically at the
// guest's first accept syscall (core.AutoNudge, the paper's §5
// automation).
func StartServerAuto(exe *Binary, libs []*Binary, port uint16) (*Session, error) {
	m := NewMachine()
	col := trace.NewCollector(exe.Name)
	m.SetTracer(col)
	p, err := m.Load(exe, libs...)
	if err != nil {
		return nil, err
	}
	s := &Session{Machine: m, Exe: exe, Port: port, Collector: col, root: p.PID()}
	NewAutoNudge(m, DefaultInitEndSyscall, func(pid int) {
		if s.InitLog == nil {
			pr, perr := m.Process(pid)
			if perr != nil {
				return
			}
			s.InitLog = col.SnapshotAndReset(pr.Modules(), "init")
		}
	})
	if !m.RunUntil(func() bool { return s.InitLog != nil }, bootBudget) {
		return nil, fmt.Errorf("%w: exited=%v killed=%v",
			ErrBootTimeout, p.Exited(), p.KilledBy())
	}
	m.Run(10000) // drain: park the guest on its accept loop
	return s, nil
}

// PID returns the root guest PID. After a Customizer rewrite use
// Customizer.PID instead (restore creates fresh processes).
func (s *Session) PID() int { return s.root }

// Root returns the current root process if alive, or any live process
// of the session's machine otherwise (after rewrites the PID changes).
func (s *Session) Root() (*Process, error) {
	if p, err := s.Machine.Process(s.root); err == nil && !p.Exited() {
		return p, nil
	}
	procs := s.Machine.Processes()
	if len(procs) == 0 {
		return nil, errors.New("dynacut: no live guest process")
	}
	return procs[0], nil
}

// Request opens a connection, sends one request, runs the machine
// until the response is complete (Machine.Exchange) and returns it. A
// guest that goes idle without answering yields "" and a nil error.
// The outcome is also recorded in s.LastErr.
func (s *Session) Request(req string) (string, error) {
	resp, _, err := s.Machine.Exchange(s.Port, []byte(req), requestBudget)
	s.LastErr = err
	return string(resp), err
}

// MustRequest is Request for flows that treat failure as fatal
// elsewhere; it returns the empty string on error. The error itself
// is kept in s.LastErr.
func (s *Session) MustRequest(req string) string {
	resp, err := s.Request(req)
	if err != nil {
		return ""
	}
	return resp
}

// HealthProbe returns the post-restore canary for
// CustomizerOptions.HealthCheck. Each call opens a fresh connection to
// the machine it is invoked on (so one probe serves every CoW replica
// of a fleet rollout), sends req, runs the guest until the response is
// complete, and fails the transaction — triggering rollback — unless
// the response contains want. It bypasses Session.LastErr: the probe
// runs in the middle of a rewrite and must not clobber the error the
// caller is tracking.
func HealthProbe(port uint16, req, want string) func(m *Machine, pid int) error {
	return func(m *Machine, pid int) error {
		return expect(m, port, probeBudget, "probe", req, want)
	}
}

// Canary returns a zero-argument end-to-end probe for the
// supervisor's closed loop (SupervisorConfig.Canary): each invocation
// sends req over a fresh connection and fails unless the response
// contains want. Like HealthProbe it bypasses LastErr — supervisor
// probes run on their own cadence and must not clobber the error the
// application flow is tracking.
func (s *Session) Canary(req, want string) func() error {
	return func() error {
		return expect(s.Machine, s.Port, requestBudget, "canary", req, want)
	}
}

// expect runs one exchange of req with the guest on port and fails,
// labelled kind, unless the response contains want.
func expect(m *Machine, port uint16, budget uint64, kind, req, want string) error {
	resp, _, err := m.Exchange(port, []byte(req), budget)
	if err != nil {
		return fmt.Errorf("%s %q: %w", kind, req, err)
	}
	if !bytes.Contains(resp, []byte(want)) {
		return fmt.Errorf("%s %q: response %q does not contain %q", kind, req, resp, want)
	}
	return nil
}

// SnapshotPhase captures and clears the coverage collected since the
// previous snapshot (or since the nudge), labelled with the phase.
func (s *Session) SnapshotPhase(phase string) (*Graph, error) {
	p, err := s.Root()
	if err != nil {
		return nil, err
	}
	return coverage.FromLog(s.Collector.SnapshotAndReset(p.Modules(), phase)), nil
}

// InitGraph returns the initialization-phase coverage graph.
func (s *Session) InitGraph() *Graph {
	if s.InitLog == nil {
		return coverage.NewGraph()
	}
	return coverage.FromLog(s.InitLog)
}

// ProfileFeatures drives the wanted then the undesired request sets,
// snapshots each, and returns the blocks unique to the undesired
// features (the §3.1 workflow).
func (s *Session) ProfileFeatures(wanted, undesired []string) ([]AbsBlock, error) {
	s.Collector.Reset()
	for _, r := range wanted {
		if _, err := s.Request(r); err != nil {
			return nil, fmt.Errorf("wanted request %q: %w", r, err)
		}
	}
	covWanted, err := s.SnapshotPhase("wanted")
	if err != nil {
		return nil, err
	}
	for _, r := range undesired {
		if _, err := s.Request(r); err != nil {
			return nil, fmt.Errorf("undesired request %q: %w", r, err)
		}
	}
	covUndesired, err := s.SnapshotPhase("undesired")
	if err != nil {
		return nil, err
	}
	return IdentifyFeatureBlocks(covUndesired, covWanted, s.Exe.Name), nil
}

// SymbolAddr resolves a symbol of the session's executable.
func (s *Session) SymbolAddr(name string) (uint64, error) {
	sym, err := s.Exe.Symbol(name)
	if err != nil {
		return 0, err
	}
	return sym.Value, nil
}
