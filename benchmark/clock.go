package main

import (
	"syscall"
	"time"
	"unsafe"
)

// Linux clock IDs for clock_gettime.
const (
	// clockProcessCPUTimeID is CPU time consumed by every thread of
	// this process. It times every call that may hand work to other
	// goroutines: a rewrite (criu dumps each process, and marshals and
	// unmarshals images, on goroutines of their own), a fleet rollout
	// over its worker lanes, and set-up. On a small shared host it
	// repeats run to run where wall time, which also bills steal time
	// and other tenants, does not.
	clockProcessCPUTimeID = 2
	// clockThreadCPUTimeID is CPU time of the calling thread. main locks
	// the measuring goroutine to its thread, so this clock times the
	// work that goroutine does without billing it the garbage
	// collector's background marking on the other processor, which
	// lands on whichever call happens to be running and moves medians
	// and tails from run to run. It times only calls that run on the
	// calling goroutine alone: Session.Request and Machine.Run.
	clockThreadCPUTimeID = 3
)

func clockNow(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime: " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// cpuNow reads the process CPU clock.
func cpuNow() time.Duration { return clockNow(clockProcessCPUTimeID) }

// threadNow reads the calling thread's CPU clock.
func threadNow() time.Duration { return clockNow(clockThreadCPUTimeID) }

// lap is one timed call on both CPU clocks.
type lap struct {
	proc, thread time.Duration
}

// timed runs f and returns its CPU time on both clocks.
func timed(f func()) lap {
	p, t := cpuNow(), threadNow()
	f()
	return lap{proc: cpuNow() - p, thread: threadNow() - t}
}
