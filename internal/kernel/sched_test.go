package kernel

import (
	"testing"
)

// spinnerSrc increments its own counter forever.
const spinnerSrc = `
.text
.global _start
_start:
	mov r8, =c
loop:
	load r1, [r8]
	add r1, 1
	store [r8], r1
	jmp loop
.data
c: .quad 0
`

// TestSchedulerFairness: two runnable processes must make comparable
// progress under the round-robin scheduler.
func TestSchedulerFairness(t *testing.T) {
	m := NewMachine()
	exe := buildExe(t, "spin", spinnerSrc)
	p1, err := m.Load(exe)
	if err != nil {
		t.Fatal(err)
	}
	exe2 := buildExe(t, "spin2", spinnerSrc)
	p2, err := m.Load(exe2)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(100_000)
	i1, i2 := p1.insts, p2.insts
	if i1 == 0 || i2 == 0 {
		t.Fatalf("starvation: %d vs %d", i1, i2)
	}
	ratio := float64(i1) / float64(i2)
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("unfair split: %d vs %d (ratio %.2f)", i1, i2, ratio)
	}
}

// TestRunStepBudgetExact: Run must retire exactly the requested
// number of instructions when work is available.
func TestRunStepBudgetExact(t *testing.T) {
	m := NewMachine()
	exe := buildExe(t, "spin", spinnerSrc)
	if _, err := m.Load(exe); err != nil {
		t.Fatal(err)
	}
	before := m.Clock()
	if n := m.Run(777); n != 777 {
		t.Fatalf("Run(777) = %d", n)
	}
	if m.Clock()-before != 777 {
		t.Fatalf("clock advanced %d", m.Clock()-before)
	}
}

// TestRunUntilHonorsBudget: an unsatisfiable predicate must not spin
// past the budget.
func TestRunUntilHonorsBudget(t *testing.T) {
	m := NewMachine()
	exe := buildExe(t, "spin", spinnerSrc)
	if _, err := m.Load(exe); err != nil {
		t.Fatal(err)
	}
	before := m.Clock()
	if m.RunUntil(func() bool { return false }, 5000) {
		t.Fatal("false predicate satisfied")
	}
	ran := m.Clock() - before
	if ran < 5000 || ran > 6200 {
		t.Fatalf("RunUntil ran %d steps for a 5000 budget", ran)
	}
}

// TestExitedProcessesStopScheduling.
func TestExitedProcessesStopScheduling(t *testing.T) {
	m := NewMachine()
	exe := buildExe(t, "quit", `
.text
.global _start
_start:
	mov r0, 1
	mov r1, 0
	syscall
`)
	p, err := m.Load(exe)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(100)
	if !p.Exited() {
		t.Fatal("did not exit")
	}
	insts := p.insts
	if m.Run(1000) != 0 {
		t.Fatal("dead machine made progress")
	}
	if p.insts != insts {
		t.Fatal("exited process executed instructions")
	}
	if got := len(m.Processes()); got != 0 {
		t.Fatalf("live processes = %d", got)
	}
	// The table entry remains until reaped.
	if _, err := m.Process(p.PID()); err != nil {
		t.Fatal("exited process entry vanished")
	}
	m.Remove(p.PID())
	if _, err := m.Process(p.PID()); err == nil {
		t.Fatal("Remove did not delete the entry")
	}
}

// TestChildrenListing.
func TestChildrenListing(t *testing.T) {
	m := NewMachine()
	exe := buildExe(t, "forker", `
.text
.global _start
_start:
	mov r0, 9
	syscall
	mov r0, 9
	syscall
spin:
	mov r0, 14
	syscall
	jmp spin
`)
	p, err := m.Load(exe)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(5000)
	kids := m.Children(p.PID())
	// Parent forks twice; first child also executes the second fork.
	if len(kids) < 2 {
		t.Fatalf("children = %d", len(kids))
	}
	for _, k := range kids {
		if k.Parent() != p.PID() {
			t.Errorf("child %d parent = %d", k.PID(), k.Parent())
		}
	}
}

// TestRunRoundMatchesRun: the public single-round stepper must be
// exactly one lap of Run's scheduler — same fair split, same clock
// accounting — so a caller interleaving work at round boundaries (the
// live-patch quiescence loop) sees the identical execution Run would
// have produced.
func TestRunRoundMatchesRun(t *testing.T) {
	build := func(t *testing.T) (*Machine, *Process, *Process) {
		m := NewMachine()
		p1, err := m.Load(buildExe(t, "spin", spinnerSrc))
		if err != nil {
			t.Fatal(err)
		}
		p2, err := m.Load(buildExe(t, "spin2", spinnerSrc))
		if err != nil {
			t.Fatal(err)
		}
		return m, p1, p2
	}

	// One round = one 64-instruction slice per runnable process.
	m, p1, p2 := build(t)
	before := m.Clock()
	if n := m.RunRound(); n != 128 {
		t.Fatalf("RunRound() = %d, want 128 (2 procs x 64-step slice)", n)
	}
	if m.Clock()-before != 128 {
		t.Fatalf("clock advanced %d, want 128", m.Clock()-before)
	}
	if p1.insts != 64 || p2.insts != 64 {
		t.Fatalf("unfair round: %d vs %d", p1.insts, p2.insts)
	}

	// k rounds must land in the same state as one Run of the same
	// budget: the refactor of Run onto runRound must not have changed
	// scheduling order or clock math.
	mr, r1, r2 := build(t)
	for i := 0; i < 5; i++ {
		if n := mr.RunRound(); n != 128 {
			t.Fatalf("round %d = %d steps", i, n)
		}
	}
	mb, b1, b2 := build(t)
	mb.Run(5 * 128)
	if r1.insts != b1.insts || r2.insts != b2.insts || mr.Clock() != mb.Clock() {
		t.Fatalf("RunRound diverged from Run: insts %d/%d vs %d/%d, clock %d vs %d",
			r1.insts, r2.insts, b1.insts, b2.insts, mr.Clock(), mb.Clock())
	}

	// No runnable work: a round retires nothing and says so.
	empty := NewMachine()
	if n := empty.RunRound(); n != 0 {
		t.Fatalf("RunRound on an empty machine = %d, want 0", n)
	}
}

// TestRunRoundDefersMidRoundProcesses: a process created during a
// round — here by a nudge callback, which also re-enters Run and reaps
// an exited process — gets no slice of the round it was created in, and
// the round still gives every other process its one slice in PID order.
func TestRunRoundDefersMidRoundProcesses(t *testing.T) {
	m := NewMachine()
	nudger, err := m.Load(buildExe(t, "nudger", `
.text
.global _start
_start:
	mov r0, 15
	mov r1, 1
	syscall
loop:
	jmp loop
`))
	if err != nil {
		t.Fatal(err)
	}
	doomed, err := m.Load(buildExe(t, "doomed", spinnerSrc))
	if err != nil {
		t.Fatal(err)
	}
	last, err := m.Load(buildExe(t, "last", spinnerSrc))
	if err != nil {
		t.Fatal(err)
	}
	var late *Process
	var nestedLast uint64
	nudges := 0
	m.SetNudgeFunc(func(int, uint64) {
		nudges++ // the nested Run must not re-issue the nudge
		if late, err = m.Load(buildExe(t, "late", spinnerSrc)); err != nil {
			t.Fatal(err)
		}
		if err := m.Kill(doomed.PID()); err != nil {
			t.Fatal(err)
		}
		m.Remove(doomed.PID())
		m.Run(200) // a nested round: the newcomer may run here
		nestedLast = last.insts
	})
	m.RunRound()
	if nudges != 1 {
		t.Fatalf("nudge callback ran %d times, want 1", nudges)
	}
	if late.insts == 0 {
		t.Fatal("the nested Run never scheduled the new process")
	}
	lateAfterNested := late.insts
	if got := last.insts; got != nestedLast+64 {
		t.Fatalf("the outer round gave pid %d %d instructions after the nested Run, want one 64-step slice", last.PID(), got-nestedLast)
	}
	if late.insts != lateAfterNested || nudger.insts == 0 {
		t.Fatalf("outer round ran a process created mid-round: late=%d", late.insts)
	}
	m.RunRound()
	if late.insts != lateAfterNested+64 {
		t.Fatalf("next round gave the new process %d instructions, want 64", late.insts-lateAfterNested)
	}
}
