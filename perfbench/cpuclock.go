package main

import (
	"syscall"
	"time"
	"unsafe"
)

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

// threadCPU returns the CPU time the calling OS thread has used. The
// in-process workloads lock their goroutine to its thread
// (runtime.LockOSThread), so the difference of two readings is the CPU
// time of the calls between them.
//
// The in-process rates (compiles_per_s, sim_mcycles_per_s) are per CPU
// second. The calls they time run on the calling thread alone, so on a
// dedicated machine a CPU second is a wall second; on a shared virtual
// machine wall time also counts the time the host runs other guests
// (steal), which moves whole runs by tens of percent.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime(CLOCK_THREAD_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}
