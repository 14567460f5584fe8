// Package dynacut is the public API of DynaCut-Go, a reproduction of
// "DynaCut: A Framework for Dynamic and Adaptive Program
// Customization" (Middleware 2023) as a self-contained simulation:
// guest programs compiled for a virtual ISA run on a userspace
// kernel, and DynaCut customizes them at run time by checkpointing
// (CRIU-style), rewriting the frozen process images (INT3 blocking,
// block wiping, page unmapping, signal-handler injection), and
// restoring them with live TCP connections intact.
//
// The typical workflow:
//
//	app, _ := dynacut.BuildWebServer(dynacut.WebServerConfig{Port: 8080})
//	sess, _ := dynacut.StartServer(app.Exe, []*dynacut.Binary{app.Libc}, 8080)
//	sess.Request("GET /\n")                       // wanted traffic
//	wanted := sess.SnapshotPhase("wanted")
//	sess.Request("PUT /f data\n")                 // undesired traffic
//	undesired := sess.SnapshotPhase("undesired")
//	blocks := dynacut.IdentifyFeatureBlocks(undesired, wanted, app.Exe.Name)
//
//	cust, _ := dynacut.NewCustomizer(sess.Machine, sess.PID(), dynacut.CustomizerOptions{
//	    RedirectTo: errHandlerAddr,
//	})
//	cust.DisableBlocks("webdav", blocks, dynacut.PolicyBlockEntry)
//	// ... later, when the scenario changes:
//	cust.EnableBlocks("webdav")
package dynacut

import (
	"github.com/dynacut/dynacut/internal/apps/kvstore"
	applibc "github.com/dynacut/dynacut/internal/apps/libc"
	"github.com/dynacut/dynacut/internal/apps/specgen"
	"github.com/dynacut/dynacut/internal/apps/webserv"
	"github.com/dynacut/dynacut/internal/asm"
	"github.com/dynacut/dynacut/internal/baseline"
	"github.com/dynacut/dynacut/internal/core"
	"github.com/dynacut/dynacut/internal/coverage"
	"github.com/dynacut/dynacut/internal/criu"
	"github.com/dynacut/dynacut/internal/delf"
	"github.com/dynacut/dynacut/internal/delf/link"
	"github.com/dynacut/dynacut/internal/disasm"
	"github.com/dynacut/dynacut/internal/faultinject"
	"github.com/dynacut/dynacut/internal/fleet"
	"github.com/dynacut/dynacut/internal/kernel"
	"github.com/dynacut/dynacut/internal/loadgen"
	"github.com/dynacut/dynacut/internal/obs"
	"github.com/dynacut/dynacut/internal/slo"
	"github.com/dynacut/dynacut/internal/supervise"
	"github.com/dynacut/dynacut/internal/trace"
)

// Re-exported types. The implementation lives under internal/; these
// aliases form the supported public surface.
type (
	// Machine is the simulated computer hosting guest processes.
	Machine = kernel.Machine
	// Process is one guest process.
	Process = kernel.Process
	// HostConn is a host-side client connection into a guest server.
	HostConn = kernel.HostConn
	// Module describes one binary mapped into a process.
	Module = kernel.Module
	// Signal is a guest signal number.
	Signal = kernel.Signal
	// ExecMode selects the machine's execution engine: the reference
	// interpreter, the basic-block translation cache, or the
	// self-checking lockstep variant (Machine.SetExecMode).
	ExecMode = kernel.ExecMode
	// BlockCacheStats is the translation cache's counter set
	// (Machine.BlockCacheStats).
	BlockCacheStats = kernel.BlockCacheStats
	// CacheDivergence is one stale cached decode caught by lockstep
	// mode (Machine.CacheDivergences).
	CacheDivergence = kernel.CacheDivergence
	// Lockstep runs the interpreter and the translating engine side
	// by side on cloned machines, diffing full machine state after
	// every scheduler round — the differential oracle that proves the
	// engines equivalent.
	Lockstep = kernel.Lockstep
	// Divergence is one state difference found by a Lockstep harness.
	Divergence = kernel.Divergence

	// Binary is a DELF executable or shared library.
	Binary = delf.File

	// Customizer applies DynaCut's dynamic customization to a guest.
	Customizer = core.Customizer
	// CustomizerOptions configures a Customizer.
	CustomizerOptions = core.Options
	// Policy selects how undesired code is removed.
	Policy = core.Policy
	// RewriteStats reports the cost of one rewrite cycle.
	RewriteStats = core.Stats
	// Handler is the injected SIGTRAP handler's in-guest state.
	Handler = core.Handler

	// Attestation is a Customizer's expected-state oracle snapshot:
	// per-text-page digests folded into a Merkle-style root plus the
	// active feature set.
	Attestation = core.Attestation
	// AttestReport is one attestation pass: live text hashed against
	// the oracle, mismatches classified repairable or foreign.
	AttestReport = core.AttestReport
	// PageMismatch is one diverged text page inside an AttestReport.
	PageMismatch = core.PageMismatch
	// PageVerdict classifies one mismatched page.
	PageVerdict = core.PageVerdict
	// RepairStats reports one anti-entropy repair pass.
	RepairStats = core.RepairStats

	// Graph is a code-coverage graph.
	Graph = coverage.Graph
	// AbsBlock is a basic block at an absolute guest address.
	AbsBlock = coverage.AbsBlock
	// Collector gathers drcov-style coverage.
	Collector = trace.Collector
	// CoverageLog is one serializable coverage log.
	CoverageLog = trace.Log

	// ImageSet is a CRIU-style checkpoint of a process tree.
	ImageSet = criu.ImageSet
	// DumpOpts controls checkpointing.
	DumpOpts = criu.DumpOpts

	// Observer collects structured trace events (phase spans, injected
	// faults, point events) and metrics from the rewrite pipeline.
	// Install via CustomizerOptions.Observer; a nil observer costs
	// nothing.
	Observer = obs.Observer
	// ObsEvent is one structured trace event in an Observer's ring.
	ObsEvent = obs.Event
	// TraceSummary aggregates a trace into per-phase statistics.
	TraceSummary = obs.TraceSummary

	// FaultInjector deterministically injects failures into the
	// checkpoint/rewrite/restore machinery (install with
	// Machine.SetFaultHook) — the chaos-testing harness behind the
	// transactional-rewrite guarantees.
	FaultInjector = faultinject.Injector
	// FaultEvent is one consultation of the fault injector.
	FaultEvent = faultinject.Event

	// CFG is a static control-flow graph.
	CFG = disasm.CFG

	// WebServerConfig shapes the web-server guest.
	WebServerConfig = webserv.Config
	// WebServerApp is a built web-server guest.
	WebServerApp = webserv.App
	// KVStoreConfig shapes the key-value store guest.
	KVStoreConfig = kvstore.Config
	// KVStoreApp is a built key-value store guest.
	KVStoreApp = kvstore.App
	// SpecProfile shapes a synthetic SPEC-like benchmark guest.
	SpecProfile = specgen.Profile
	// SpecApp is a built benchmark guest.
	SpecApp = specgen.App

	// DebloatResult is the outcome of a static baseline debloater.
	DebloatResult = baseline.Result

	// AutoNudge detects the end of initialization automatically by
	// syscall monitoring (the paper's §5 future-work item).
	AutoNudge = core.AutoNudge

	// Supervisor is the self-healing closed-loop controller (§3.3):
	// trap polling, false-removal adoption, canary probing, per-feature
	// circuit breakers and the trap-storm degradation ladder.
	Supervisor = supervise.Supervisor
	// SupervisorConfig tunes the supervisor's cadences and thresholds.
	SupervisorConfig = supervise.Config
	// SupervisorStatus snapshots the supervisor's ledger.
	SupervisorStatus = supervise.Status
	// FeatureBreaker is one feature's circuit-breaker ledger.
	FeatureBreaker = supervise.Breaker
	// BreakerState is a circuit breaker's state (closed/open/half-open).
	BreakerState = supervise.BreakerState
	// SupervisorAggregate is a fleet-wide merge of supervisor ledgers
	// (worst-state breakers, level histogram, loss counts).
	SupervisorAggregate = supervise.AggregateStatus

	// Fleet owns N replicas cloned copy-on-write from one booted
	// template guest and applies customizations across them as staged
	// canary/wave rollouts with automatic halt and pristine rollback.
	Fleet = fleet.Fleet
	// FleetConfig sizes and tunes a fleet.
	FleetConfig = fleet.Config
	// FleetReplica is one cloned guest plus its customizer.
	FleetReplica = fleet.Replica
	// FleetStatus pairs per-replica supervisor ledgers with their
	// fleet-wide aggregate.
	FleetStatus = fleet.Status
	// ReplicaOutcome records where one replica ended after a rollout.
	ReplicaOutcome = fleet.ReplicaOutcome
	// RolloutOutcome classifies one replica's end state.
	RolloutOutcome = fleet.Outcome
	// RolloutResult is the full record of one staged rollout.
	RolloutResult = fleet.RolloutResult
	// WaveResult summarizes one canary shard or rollout wave.
	WaveResult = fleet.WaveResult

	// RolloutController is the crash-resumable rollout engine behind
	// Fleet.Rollout: worker lanes lease per-replica steps off a work
	// queue under virtual-clock deadlines, and every scheduling
	// decision is journaled so a dead controller can be resumed.
	RolloutController = fleet.Controller
	// ControllerStatus snapshots a controller mid-rollout.
	ControllerStatus = fleet.ControllerStatus
	// StepEvent is one scheduling event streamed through
	// FleetConfig.OnStep (lease, expire, requeue, outcome, ...).
	StepEvent = fleet.StepEvent
	// RolloutJournal is the append-only CRC-framed log of a rollout.
	RolloutJournal = fleet.Journal
	// JournalRecord is one rollout-journal entry.
	JournalRecord = fleet.Record
	// JournalRecKind enumerates rollout-journal record types.
	JournalRecKind = fleet.RecKind
	// StepMode is the rewrite path a rollout step actually took
	// (transaction, live-patch, or fell-back), journaled on outcomes.
	StepMode = fleet.StepMode
	// AttestVerdict classifies one replica inside a fleet attestation
	// sweep (clean, repaired, skew, foreign, readmit).
	AttestVerdict = fleet.AttestVerdict
	// SweepResult summarizes one fleet-wide attestation sweep.
	SweepResult = fleet.SweepResult
	// ReplicaAttest is one replica's verdict inside a SweepResult.
	ReplicaAttest = fleet.ReplicaAttest

	// PageStore is the content-addressed checkpoint store replicas
	// deduplicate their pristine images into.
	PageStore = criu.PageStore
	// PageStoreStats reports dedup effectiveness.
	PageStoreStats = criu.StoreStats

	// LoadRequest is one weighted entry of a workload mix.
	LoadRequest = loadgen.Request
	// LoadMix is a deterministic weighted request mix.
	LoadMix = loadgen.Mix
	// LoadHistogram records request latencies (in guest instructions)
	// with ceil nearest-rank percentile queries.
	LoadHistogram = loadgen.Histogram
	// LoadBucket is one throughput window on the virtual-time axis.
	LoadBucket = loadgen.Bucket
	// LoadResult aggregates one load-driver run.
	LoadResult = loadgen.Result
	// LoadDriver is the closed-loop workload driver: one request in
	// flight, the next fired as the previous resolves (Figure 8).
	LoadDriver = loadgen.Driver
	// OpenLoadDriver is the open-loop driver: requests fire at the
	// vticks a LoadSchedule dictates, outstanding responses or not,
	// with a bounded in-flight window and explicit drop accounting.
	OpenLoadDriver = loadgen.OpenDriver
	// LoadPool fans closed-loop drivers across fleet replicas.
	LoadPool = loadgen.Pool
	// OpenLoadPool fans open-loop drivers across fleet replicas.
	OpenLoadPool = loadgen.OpenPool
	// LoadSchedule dictates open-loop arrival times on the vtick axis.
	LoadSchedule = loadgen.Schedule
	// LoadArrival is one scheduled request arrival.
	LoadArrival = loadgen.Arrival
	// LoadTrace is a trace-driven schedule parsed from CSV
	// (invocations-per-slot with optional per-slot payloads).
	LoadTrace = loadgen.TraceSchedule

	// SLOConfig shapes the load half of a rollout-under-load run.
	SLOConfig = slo.Config
	// SLOReport carries the figures an operator would ask for:
	// p50/p99/p999 latency, served per vtick, drops, and per-replica
	// downtime spans measured from the journal and from observed
	// service gaps independently.
	SLOReport = slo.Report
	// DowntimeSpan is one replica's downtime interval.
	DowntimeSpan = slo.Span
)

// Replica end states after a staged rollout.
const (
	OutcomePending    = fleet.OutcomePending
	OutcomeCommitted  = fleet.OutcomeCommitted
	OutcomeAborted    = fleet.OutcomeAborted
	OutcomeFailed     = fleet.OutcomeFailed
	OutcomeRolledBack = fleet.OutcomeRolledBack
	OutcomeRestored   = fleet.OutcomeRestored
	OutcomeLost       = fleet.OutcomeLost
)

// Rollout-journal record kinds.
const (
	RecStart    = fleet.RecStart
	RecIntent   = fleet.RecIntent
	RecOutcome  = fleet.RecOutcome
	RecWaveDone = fleet.RecWaveDone
	RecHalt     = fleet.RecHalt
	RecResume   = fleet.RecResume
	RecDone     = fleet.RecDone

	// Journal v3 attestation kinds.
	RecAttest     = fleet.RecAttest
	RecRepair     = fleet.RecRepair
	RecQuarantine = fleet.RecQuarantine
)

// Attestation-sweep verdicts (JournalRecord.Attempt of a RecAttest).
const (
	VerdictClean    = fleet.VerdictClean
	VerdictRepaired = fleet.VerdictRepaired
	VerdictSkew     = fleet.VerdictSkew
	VerdictForeign  = fleet.VerdictForeign
	VerdictReadmit  = fleet.VerdictReadmit
)

// Per-page attestation verdicts (PageMismatch.Verdict).
const (
	PageClean      = core.PageClean
	PageRepairable = core.PageRepairable
	PageForeign    = core.PageForeign
)

// Rollout step modes (JournalRecord.Mode / StepEvent.Mode).
const (
	ModeTransaction = fleet.ModeTransaction
	ModeLivePatch   = fleet.ModeLivePatch
	ModeFellBack    = fleet.ModeFellBack
)

// DefaultQuiesceRounds bounds DisableBlocksLive's quiescence loop
// when CustomizerOptions.LiveQuiesceRounds is zero.
const DefaultQuiesceRounds = core.DefaultQuiesceRounds

// Removal policies (§3.2.2), cheapest to strongest.
const (
	PolicyBlockEntry = core.PolicyBlockEntry
	PolicyWipeBlocks = core.PolicyWipeBlocks
	PolicyUnmapPages = core.PolicyUnmapPages
)

// Circuit-breaker states.
const (
	BreakerClosed   = supervise.BreakerClosed
	BreakerOpen     = supervise.BreakerOpen
	BreakerHalfOpen = supervise.BreakerHalfOpen
)

// Signals.
const (
	SIGTRAP = kernel.SIGTRAP
	SIGSEGV = kernel.SIGSEGV
	SIGSYS  = kernel.SIGSYS
)

// Execution engines (Machine.SetExecMode; DESIGN.md §15).
const (
	// ModeInterpret single-steps every instruction. The reference.
	ModeInterpret = kernel.ModeInterpret
	// ModeTranslate executes through the basic-block cache.
	ModeTranslate = kernel.ModeTranslate
	// ModeLockstep is ModeTranslate with every cached block
	// re-verified against live bytes at dispatch.
	ModeLockstep = kernel.ModeLockstep
)

// Failure-model sentinels, for errors.Is against Customizer and image
// errors.
var (
	// ErrRolledBack: the rewrite failed but the guest was restored
	// from the pre-edit images and keeps serving.
	ErrRolledBack = core.ErrRolledBack
	// ErrRestoreFailed: a restore failed after the guest was killed
	// (always accompanied by a rollback, or by ErrRollbackFailed).
	ErrRestoreFailed = core.ErrRestoreFailed
	// ErrRollbackFailed: the rollback restore failed too; the guest is
	// lost.
	ErrRollbackFailed = core.ErrRollbackFailed
	// ErrCorruptImage: an image blob failed its checksum or framing.
	ErrCorruptImage = criu.ErrCorruptImage
	// ErrStoreCorrupt: a content-addressed page-store blob no longer
	// hashes to its key — the store rotted underneath us.
	ErrStoreCorrupt = criu.ErrStoreCorrupt
	// ErrInconsistentImage: a decoded image set fails cross-checks
	// (ImageSet.Validate).
	ErrInconsistentImage = criu.ErrInconsistentImage
	// ErrFaultInjected: a failure came from the fault injector.
	ErrFaultInjected = faultinject.ErrInjected
	// ErrQuarantined: DisableFeature refused — the feature's breaker is
	// open and under probation.
	ErrQuarantined = supervise.ErrQuarantined
	// ErrDisarmed: DisableFeature refused — the degradation ladder
	// switched patching off; Rearm to resume.
	ErrDisarmed = supervise.ErrDisarmed
	// ErrGuestLost: the supervisor exhausted its pristine-restore
	// attempts; the guest is gone.
	ErrGuestLost = supervise.ErrGuestLost
	// ErrRewriteAborted: a rewrite stopped at its pre-commit gate; the
	// guest is untouched.
	ErrRewriteAborted = core.ErrAborted
	// ErrFleetHalted: a staged rollout halted (canary or wave failure)
	// before this replica's rewrite committed.
	ErrFleetHalted = fleet.ErrHalted
	// ErrControllerCrashed: the rollout controller died mid-rollout
	// (injected crash or torn journal append); resume from its journal
	// with ResumeRolloutController.
	ErrControllerCrashed = fleet.ErrControllerCrashed
	// ErrJournalCorrupt: a rollout journal has CRC or framing damage
	// before its final record — damage a crash cannot explain.
	ErrJournalCorrupt = fleet.ErrJournalCorrupt
	// ErrJournalMagic: bytes handed to DecodeRolloutJournal are not a
	// rollout journal.
	ErrJournalMagic = fleet.ErrJournalMagic
	// ErrNoLoadMix: a load driver has arrivals without payloads and no
	// mix to draw them from.
	ErrNoLoadMix = loadgen.ErrNoMix
	// ErrNoLoadSchedule: an open-loop driver has no schedule.
	ErrNoLoadSchedule = loadgen.ErrNoSchedule
	// ErrLoadTruncated: a response was still mid-write when its
	// request budget ran out.
	ErrLoadTruncated = loadgen.ErrTruncated
	// ErrBadLoadTrace: a trace CSV failed to parse.
	ErrBadLoadTrace = loadgen.ErrBadTrace
	// ErrNoLoadHorizon: an SLOConfig is missing its horizon.
	ErrNoLoadHorizon = slo.ErrNoHorizon
)

// NewMachine creates an empty simulated machine.
func NewMachine() *Machine { return kernel.NewMachine() }

// NewLockstep builds the differential-execution oracle: two clones of
// m, one interpreting and one running the given engine, advanced
// round-for-round and diffed after each (registers, memory, dirty
// bitmaps, tick counts, net buffers). Divergences are collected, not
// fatal — inspect with Lockstep.Divergences.
func NewLockstep(m *Machine, mode ExecMode) *Lockstep { return kernel.NewLockstep(m, mode) }

// NewFaultInjector creates a deterministic, seeded fault injector;
// install it with Machine.SetFaultHook.
func NewFaultInjector(seed int64) *FaultInjector { return faultinject.New(seed) }

// NewObserver creates a trace observer with a bounded event ring of
// the given capacity (<= 0 selects the default).
func NewObserver(capacity int) *Observer { return obs.New(capacity) }

// SummarizeTrace aggregates a slice of trace events (e.g. read back
// from a JSONL file via obs tooling, or Observer.Events) into
// per-phase statistics.
func SummarizeTrace(events []ObsEvent) *TraceSummary { return obs.Summarize(events) }

// NewCustomizer wraps the guest process rooted at pid.
func NewCustomizer(m *Machine, pid int, opts CustomizerOptions) (*Customizer, error) {
	return core.New(m, pid, opts)
}

// NewSupervisor builds the closed-loop controller for a customized
// guest. Call Attach to snapshot the last-good images and start it.
func NewSupervisor(m *Machine, cust *Customizer, cfg SupervisorConfig) *Supervisor {
	return supervise.New(m, cust, cfg)
}

// AggregateSupervisors merges per-replica supervisor ledgers into one
// fleet-wide view (worst breaker state wins, strikes are summed).
func AggregateSupervisors(sts ...SupervisorStatus) SupervisorAggregate {
	return supervise.Aggregate(sts...)
}

// NewFleet clones the booted guest rooted at rootPID on template into
// cfg.Replicas copy-on-write replicas whose pristine checkpoints
// deduplicate into a shared PageStore. The template itself is never
// part of the fleet and stays untouched.
func NewFleet(template *Machine, rootPID int, cfg FleetConfig) (*Fleet, error) {
	return fleet.New(template, rootPID, cfg)
}

// NewFleetFromSession builds a fleet from a profiled Session (the
// session's guest becomes the template).
func NewFleetFromSession(s *Session, cfg FleetConfig) (*Fleet, error) {
	return fleet.New(s.Machine, s.PID(), cfg)
}

// NewRolloutController builds a crash-resumable rollout controller
// over the fleet. A nil journal starts a fresh log; Fleet.Rollout is
// shorthand for NewRolloutController(f, nil).Run(apply).
func NewRolloutController(f *Fleet, j *RolloutJournal) *RolloutController {
	return fleet.NewController(f, j)
}

// ResumeRolloutController rebuilds a controller from a dead
// controller's serialized journal: committed replicas are skipped,
// torn intent windows re-verified, and an interrupted halt protocol
// completed. Run the returned controller to finish the rollout.
func ResumeRolloutController(f *Fleet, journal []byte) (*RolloutController, error) {
	return fleet.ResumeController(f, journal)
}

// DecodeRolloutJournal parses a serialized rollout journal, tolerating
// the torn final frame a crash mid-append leaves behind.
func DecodeRolloutJournal(data []byte) ([]JournalRecord, error) {
	return fleet.DecodeJournal(data)
}

// NewPageStore creates an empty content-addressed checkpoint store.
func NewPageStore() *PageStore { return criu.NewPageStore() }

// RestoreFromStore materializes the checkpoint named by ident out of
// the store into fresh processes on m.
func RestoreFromStore(m *Machine, store *PageStore, ident uint32) ([]*Process, map[int]int, error) {
	return criu.RestoreFromStore(m, store, ident)
}

// DefaultInitEndSyscall is the accept(2) analogue used by AutoNudge
// as the canonical init/serving boundary for servers.
const DefaultInitEndSyscall = core.DefaultInitEndSyscall

// ServingSyscalls returns the post-initialization syscall allow list
// for servers (request handling only), for use with
// Customizer.RestrictSyscalls — the paper's §5 temporal seccomp
// specialization built on process rewriting.
func ServingSyscalls() []uint64 { return append([]uint64(nil), core.ServingSyscalls...) }

// MasterSyscalls returns the allow list for a supervising master
// process.
func MasterSyscalls() []uint64 { return append([]uint64(nil), core.MasterSyscalls...) }

// NewAutoNudge arms automatic init-end detection: onInit fires once
// when the guest first issues the trigger syscall.
func NewAutoNudge(m *Machine, trigger uint64, onInit func(pid int)) *AutoNudge {
	return core.NewAutoNudge(m, trigger, onInit)
}

// BuildLibc builds the shared C-library guest binary.
func BuildLibc() (*Binary, error) { return applibc.Build() }

// BuildWebServer builds the Lighttpd/Nginx-like guest.
func BuildWebServer(cfg WebServerConfig) (*WebServerApp, error) { return webserv.Build(cfg) }

// BuildKVStore builds the Redis-like guest.
func BuildKVStore(cfg KVStoreConfig) (*KVStoreApp, error) { return kvstore.Build(cfg) }

// BuildSpec builds a synthetic SPEC-like benchmark guest.
func BuildSpec(p SpecProfile) (*SpecApp, error) { return specgen.Build(p) }

// SpecProfiles returns the built-in benchmark profiles (the paper's
// seven SPEC INTSpeed C/C++ programs at 1:10 scale).
func SpecProfiles() []SpecProfile { return append([]SpecProfile(nil), specgen.Profiles...) }

// Assemble builds an executable from assembly source, linked against
// the given shared libraries.
func Assemble(name, src string, libs ...*Binary) (*Binary, error) {
	obj, err := asm.Assemble(src)
	if err != nil {
		return nil, err
	}
	return link.Executable(name, []*asm.Object{obj}, libs...)
}

// AssembleLibrary builds a position-independent shared library from
// assembly source.
func AssembleLibrary(name, src string) (*Binary, error) {
	obj, err := asm.Assemble(src)
	if err != nil {
		return nil, err
	}
	return link.Library(name, []*asm.Object{obj})
}

// Dump checkpoints a process (tree) into CRIU-style images.
func Dump(m *Machine, pid int, opts DumpOpts) (*ImageSet, error) {
	return criu.Dump(m, pid, opts)
}

// Restore materializes an image set into fresh processes.
func Restore(m *Machine, set *ImageSet) ([]*Process, map[int]int, error) {
	return criu.Restore(m, set)
}

// UnmarshalImages decodes a serialized image-set blob (the inverse of
// ImageSet.Marshal), e.g. images shipped between machines.
func UnmarshalImages(blob []byte) (*ImageSet, error) {
	return criu.Unmarshal(blob)
}

// AnalyzeCFG statically enumerates a binary's basic blocks (the
// paper's Angr role).
func AnalyzeCFG(b *Binary) *CFG { return disasm.Analyze(b) }

// IdentifyFeatureBlocks diffs undesired-request coverage against
// wanted-request coverage (§3.1).
func IdentifyFeatureBlocks(undesired, wanted *Graph, program string) []AbsBlock {
	return core.IdentifyFeatureBlocks(undesired, wanted, program)
}

// IdentifyInitBlocks diffs initialization coverage against serving
// coverage (§3.1).
func IdentifyInitBlocks(initPhase, serving *Graph, program string) []AbsBlock {
	return core.IdentifyInitBlocks(initPhase, serving, program)
}

// IdentifyUnexecutedBlocks lists static blocks no trace covered.
func IdentifyUnexecutedBlocks(cfg *CFG, executed *Graph, program string) []AbsBlock {
	return core.IdentifyUnexecutedBlocks(cfg, executed, program)
}

// RazorDebloat statically debloats a binary the way RAZOR does
// (traced blocks plus related-code heuristics).
func RazorDebloat(exe *Binary, traces *Graph) (*DebloatResult, error) {
	return baseline.Razor(exe, traces)
}

// ChiselDebloat statically debloats a binary the way CHISEL does
// (exactly the traced blocks).
func ChiselDebloat(exe *Binary, traces *Graph) (*DebloatResult, error) {
	return baseline.Chisel(exe, traces)
}

// GraphFromLog builds a coverage graph from one log.
func GraphFromLog(l *CoverageLog) *Graph { return coverage.FromLog(l) }

// NewLoadMix builds a deterministic weighted request mix.
func NewLoadMix(reqs ...LoadRequest) *LoadMix { return loadgen.NewMix(reqs...) }

// MergeLoadResults folds per-replica load results into one fleet view
// (nil slots from failed replicas are skipped).
func MergeLoadResults(results ...*LoadResult) *LoadResult { return loadgen.Merge(results...) }

// NewConstantSchedule arrives every interval vticks.
func NewConstantSchedule(interval uint64) LoadSchedule { return loadgen.NewConstant(interval) }

// NewStepRampSchedule starts at start arrivals per slot and adds step
// (possibly negative) each slot — the stress-mode ramp.
func NewStepRampSchedule(start, step int, slotTicks uint64) LoadSchedule {
	return loadgen.NewStepRamp(start, step, slotTicks)
}

// NewPoissonSchedule draws seeded exponential inter-arrival gaps with
// the given mean: bursty but exactly reproducible per seed.
func NewPoissonSchedule(meanInterval uint64, seed int64) LoadSchedule {
	return loadgen.NewPoisson(meanInterval, seed)
}

// ParseLoadTrace parses a CSV trace ("invocations[,payload]" per
// slot) into a trace-driven schedule.
func ParseLoadTrace(data string, slotTicks uint64) (*LoadTrace, error) {
	return loadgen.ParseTraceCSV(data, slotTicks)
}

// RolloutUnderLoad clones the booted guest rooted at rootPID into a
// fleet, then runs a staged rollout of apply across it while every
// replica serves the configured open-loop load, and reports the SLO
// figures — latency percentiles, served per vtick, drops, and
// per-replica downtime spans cross-checked between the rollout
// journal and the load generator's observed service gaps.
func RolloutUnderLoad(template *Machine, rootPID int, fcfg FleetConfig, cfg SLOConfig, apply func(*FleetReplica) (RewriteStats, error)) (*SLOReport, *Fleet, error) {
	return slo.RolloutUnderLoad(template, rootPID, fcfg, cfg, apply)
}

// SteadyStateLoad measures the same load shape against clones of the
// fleet's replicas with no rollout running — the baseline for
// RolloutUnderLoad figures. The fleet's machines are untouched.
func SteadyStateLoad(f *Fleet, cfg SLOConfig) (*SLOReport, error) {
	return slo.SteadyState(f, cfg)
}

// MergeGraphs unions coverage graphs.
func MergeGraphs(gs ...*Graph) *Graph { return coverage.Merge(gs...) }

// DiffGraphs returns blocks in a absent from b.
func DiffGraphs(a, b *Graph) *Graph { return coverage.Diff(a, b) }
