package main

import (
	"syscall"
	"time"
	"unsafe"
)

// clockThreadCPUTimeID is CLOCK_THREAD_CPUTIME_ID from <time.h>.
const clockThreadCPUTimeID = 3

// threadCPU returns the CPU time the calling OS thread has used. The
// kernel charges a thread only for time it actually ran, so hypervisor
// steal, waiting for a core and sleeping in a lock are all left out. The
// caller must hold its OS thread (runtime.LockOSThread) across the two
// readings it subtracts.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	// clock_gettime fails only for an unknown clock or a bad pointer,
	// neither of which can happen here.
	_, _, _ = syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
