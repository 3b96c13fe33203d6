package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// Host-speed reference. The 2-vCPU shared host this benchmark was tuned
// on runs the simulator 25–40% faster or slower for minutes at a time,
// depending on what else the machine runs, and a 30 s window sits
// inside one such stretch. A fixed kernel that lives in this package, so
// no change to the program can alter it, is timed in short chunks
// interleaved with the closed-loop requests; its speed over the window
// measures the host, and the window's throughput and latency are
// expressed at the nominal speed below. The kernel does random
// read-modify-write over 16 MiB, more than a core's private L2, because
// the simulator's speed follows the shared cache and memory, not the
// ALUs. Each chunk is timed in thread CPU time, so time the chunk spends
// preempted by the program's own goroutines or the GC does not count as
// a slow host. What the program runs on the other core while a chunk
// runs moved the kernel's speed by under 2% on that host, so a change to
// the program can bias the correction by about that much.

const (
	refWords = 1 << 21 // 16 MiB of uint64
	refOps   = 50_000  // read-modify-writes per chunk, about 1 ms

	// nominalRefMops is the kernel's median speed, in million
	// read-modify-writes per CPU second, measured interleaved with the
	// workloads on the 2-vCPU Intel Xeon host (Sapphire Rapids, 105 MiB
	// shared L3) the bounds in BENCHMARK.json were set on.
	nominalRefMops = 44.0
)

// hostRef is one client's reference kernel state.
type hostRef struct {
	buf []uint64
	x   uint64
}

// newHostRef allocates and touches the kernel's buffer, so page faults
// are not timed.
func newHostRef(seed uint64) *hostRef {
	h := &hostRef{buf: make([]uint64, refWords), x: seed | 1}
	for i := range h.buf {
		h.buf[i] = uint64(i)
	}
	return h
}

// chunk runs refOps read-modify-writes and returns the thread CPU time
// and the wall time they took, in seconds.
func (h *hostRef) chunk() (cpu, wall float64) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	w0 := time.Now()
	c0 := threadCPU()
	x, mask := h.x, uint64(len(h.buf)-1)
	for i := 0; i < refOps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		h.buf[x&mask] += x
	}
	h.x = x
	return threadCPU() - c0, elapsed(w0)
}

// threadCPU is the calling thread's CPU time in seconds
// (CLOCK_THREAD_CPUTIME_ID).
func threadCPU() float64 {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	// clock_gettime fails only for a bad clock id or address, and both
	// are fixed here, so its errno is not checked.
	_, _, _ = syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return float64(ts.Sec) + float64(ts.Nsec)/1e9
}

// refTally adds up reference kernel chunks.
type refTally struct {
	ops float64 // read-modify-writes
	cpu float64 // their thread CPU seconds
}

func (t *refTally) add(o refTally) {
	t.ops += o.ops
	t.cpu += o.cpu
}

// speed is the kernel's speed relative to nominalRefMops: above 1 on a
// faster host. A host time t measured at speed s reads t*s at nominal
// speed, and a rate r reads r/s.
func (t refTally) speed() float64 {
	return t.ops / t.cpu / 1e6 / nominalRefMops
}
