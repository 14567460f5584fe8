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
	// ExecMode selects the machine's execution engine: the reference
	// interpreter, the basic-block translation cache, or the
	// self-checking lockstep variant (Machine.SetExecMode).
	ExecMode = kernel.ExecMode
	// BlockCacheStats is the translation cache's counter set
	// (Machine.BlockCacheStats).
	BlockCacheStats = kernel.BlockCacheStats
	// Lockstep runs the interpreter and the translating engine side
	// by side on cloned machines, diffing full machine state after
	// every scheduler round — the differential oracle that proves the
	// engines equivalent.
	Lockstep = kernel.Lockstep

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

	// FaultInjector deterministically injects failures into the
	// checkpoint/rewrite/restore machinery (install with
	// Machine.SetFaultHook) — the chaos-testing harness behind the
	// transactional-rewrite guarantees.
	FaultInjector = faultinject.Injector

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

	// Fleet owns N replicas cloned copy-on-write from one booted
	// template guest and applies customizations across them as staged
	// canary/wave rollouts with automatic halt and pristine rollback.
	Fleet = fleet.Fleet
	// FleetConfig sizes and tunes a fleet.
	FleetConfig = fleet.Config
	// FleetReplica is one cloned guest plus its customizer.
	FleetReplica = fleet.Replica

	// RolloutController is the crash-resumable rollout engine behind
	// Fleet.Rollout: worker lanes lease per-replica steps off a work
	// queue under virtual-clock deadlines, and every scheduling
	// decision is journaled so a dead controller can be resumed.
	RolloutController = fleet.Controller
	// RolloutJournal is the append-only CRC-framed log of a rollout.
	RolloutJournal = fleet.Journal

	// LoadRequest is one weighted entry of a workload mix.
	LoadRequest = loadgen.Request
	// LoadMix is a deterministic weighted request mix.
	LoadMix = loadgen.Mix
	// LoadSchedule dictates open-loop arrival times on the vtick axis.
	LoadSchedule = loadgen.Schedule
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
)

// Removal policies (§3.2.2), cheapest to strongest.
const (
	PolicyBlockEntry = core.PolicyBlockEntry
	PolicyWipeBlocks = core.PolicyWipeBlocks
	PolicyUnmapPages = core.PolicyUnmapPages
)

// SIGSYS is the signal that kills a guest issuing a syscall outside
// its Customizer.RestrictSyscalls allow list.
const SIGSYS = kernel.SIGSYS

// Execution engines (Machine.SetExecMode; DESIGN.md §15).
const (
	// ModeInterpret single-steps every instruction. The reference.
	ModeInterpret = kernel.ModeInterpret
	// ModeTranslate executes through the basic-block cache. The
	// default.
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
	// (always accompanied by a rollback, or by a failed rollback that
	// loses the guest).
	ErrRestoreFailed = core.ErrRestoreFailed
	// ErrCorruptImage: an image blob failed its checksum or framing.
	ErrCorruptImage = criu.ErrCorruptImage
	// ErrQuarantined: DisableFeature refused — the feature's breaker is
	// open and under probation.
	ErrQuarantined = supervise.ErrQuarantined
	// ErrDisarmed: DisableFeature refused — the degradation ladder
	// switched patching off for good.
	ErrDisarmed = supervise.ErrDisarmed
	// ErrControllerCrashed: the rollout controller died mid-rollout
	// (injected crash or torn journal append); resume from its journal
	// with ResumeRolloutController.
	ErrControllerCrashed = fleet.ErrControllerCrashed
)

// NewMachine creates an empty simulated machine.
func NewMachine() *Machine { return kernel.NewMachine() }

// NewLockstep builds the differential-execution oracle: two clones of
// m, one interpreting and one running the given engine, advanced
// round-for-round and diffed after each (registers, memory, tick
// counts, net buffers). Divergences are collected, not
// fatal — inspect with Lockstep.Divergences.
func NewLockstep(m *Machine, mode ExecMode) *Lockstep { return kernel.NewLockstep(m, mode) }

// NewFaultInjector creates a deterministic, seeded fault injector;
// install it with Machine.SetFaultHook.
func NewFaultInjector(seed int64) *FaultInjector { return faultinject.New(seed) }

// NewObserver creates a trace observer with a bounded event ring of
// the given capacity (<= 0 selects the default).
func NewObserver(capacity int) *Observer { return obs.New(capacity) }

// NewCustomizer wraps the guest process rooted at pid.
func NewCustomizer(m *Machine, pid int, opts CustomizerOptions) (*Customizer, error) {
	return core.New(m, pid, opts)
}

// NewSupervisor builds the closed-loop controller for a customized
// guest. Call Attach to snapshot the last-good images and start it.
func NewSupervisor(m *Machine, cust *Customizer, cfg SupervisorConfig) *Supervisor {
	return supervise.New(m, cust, cfg)
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

// DefaultInitEndSyscall is the accept(2) analogue used by AutoNudge
// as the canonical init/serving boundary for servers.
const DefaultInitEndSyscall = core.DefaultInitEndSyscall

// ServingSyscalls returns the post-initialization syscall allow list
// for servers (request handling only), for use with
// Customizer.RestrictSyscalls — the paper's §5 temporal seccomp
// specialization built on process rewriting.
func ServingSyscalls() []uint64 { return append([]uint64(nil), core.ServingSyscalls...) }

// NewAutoNudge arms automatic init-end detection: onInit fires once
// when the guest first issues the trigger syscall.
func NewAutoNudge(m *Machine, trigger uint64, onInit func(pid int)) *AutoNudge {
	return core.NewAutoNudge(m, trigger, onInit)
}

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
