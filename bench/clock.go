//go:build linux

package main

import (
	"syscall"
	"time"
	"unsafe"
)

// stamp is a reading of the benchmark's clock: the CPU time this process
// has used, on all its threads. Every timing the benchmark reports is a
// difference of two stamps.
//
// The clock is not the wall clock because the benchmark runs in a virtual
// machine on a shared host, whose other tenants take the processor away
// for as much as three quarters of a run: wall time per operation then
// differs several-fold between two runs of one binary, and no bound could
// resolve a regression. The guest kernel leaves stolen time out of a
// task's CPU time, so the same operation costs the same on a busy host as
// on a quiet one. The program under test does not sleep or wait on
// anything outside the process (device RPCs cross loopback to servers in
// this process, OSSDelay is 0) and runs on one processor (see main), so
// on a quiet host the CPU time and the wall time of an operation agree;
// every run prints both totals.
type stamp int64

// cpuClock is CLOCK_PROCESS_CPUTIME_ID.
const cpuClock = 2

func now() stamp {
	var ts syscall.Timespec
	// clock_gettime cannot fail for a clock id the kernel knows.
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, cpuClock, uintptr(unsafe.Pointer(&ts)), 0)
	return stamp(ts.Nano())
}

func since(s stamp) time.Duration { return time.Duration(now() - s) }
