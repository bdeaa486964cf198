package main

import (
	"fmt"
	"math"
	"syscall"
	"time"
	"unsafe"
)

// The reference clock. The VM the benchmark runs on shares its cores
// with other tenants, and its speed drifts by up to 2.6x over minutes. A
// CPU-bound op's wall time moves with that drift far more than with the
// program. The in-process workloads therefore time each op by the CPU
// time of the one thread that runs it (threadCPU), which leaves out the
// slices the hypervisor or another process took. Clock frequency, a busy
// hyperthread sibling and a shared last-level cache still slow every
// instruction, so the phase also runs a fixed kernel between its ops,
// with its clocks stopped, and scales each stretch of ops by refKernel
// over the kernel's CPU time around it. The kernel lives here in the
// benchmark and never changes with the program: a program change moves
// the ops and not the kernel, and a host change moves both.

// refKernel is the reference host's time for one kernel: reference-clock
// durations are what the ops would take on a host that runs the kernel
// in exactly this long. It is about the kernel's time on the 2-vCPU Xeon
// (Sapphire Rapids) KVM guest the bounds were set on.
const refKernel = 5 * time.Millisecond

// calKernel is a fixed, allocation-free mix of what the simulator does
// per event: exponential draws, a binary event heap, random reads and
// writes over a table about the size of the engine's working set, hash
// lookups and a small dense matrix-vector product. Its memory is mapped
// outside the Go heap, so it does not count in heap_mib_p99.
type calKernel struct {
	heap  []calEvent
	table []float64
	keys  []uint64 // open addressing, linear probing
	w     [32 * 32]float64
	x, y  [32]float64
	state uint64
	sink  float64
}

type calEvent struct {
	at float64
	id int32
}

const (
	calIters    = 18_000
	calHeapSize = 4096
	calTable    = 1 << 18 // 2 MiB of float64
	calKeys     = 1 << 14
	calSlotBits = 15
	calSlots    = 1 << calSlotBits // twice calKeys
	calMul      = 0x9e3779b97f4a7c15
)

// offHeap returns n zeroed values of T in anonymous memory the Go heap
// does not see. The kernel keeps it for the life of the process.
func offHeap[T any](n int) ([]T, error) {
	var zero T
	b, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof(zero)), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("calibration kernel: mmap: %w", err)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n), nil
}

func newCalKernel() (*calKernel, error) {
	heap, err := offHeap[calEvent](calHeapSize + 1)
	if err != nil {
		return nil, err
	}
	table, err := offHeap[float64](calTable)
	if err != nil {
		return nil, err
	}
	keys, err := offHeap[uint64](calSlots)
	if err != nil {
		return nil, err
	}
	k := &calKernel{heap: heap[:0], table: table, keys: keys}
	for i := range k.table {
		k.table[i] = float64(i%97) * 0.01
	}
	for i := uint64(1); i <= calKeys; i++ {
		k.keys[k.slot(i*calMul)] = i * calMul
	}
	for i := range k.w {
		k.w[i] = float64(i%13) * 0.03
	}
	return k, nil
}

func (k *calKernel) next() uint64 {
	k.state ^= k.state << 13
	k.state ^= k.state >> 7
	k.state ^= k.state << 17
	return k.state
}

// run executes one kernel: the same instructions on every call.
func (k *calKernel) run() {
	k.state, k.heap = 0x2545f4914f6cdd1d, k.heap[:0]
	now, acc := 0.0, 0.0
	for i := 0; i < calIters; i++ {
		r := k.next()
		u := float64(r>>11)/(1<<53) + 1e-12
		k.push(calEvent{at: now - math.Log(u), id: int32(i)})
		if len(k.heap) > calHeapSize {
			now = k.pop().at
		}
		j := r % calTable
		k.table[j] += now * 1e-9
		acc += k.table[(j*7919)%calTable]
		if i%8 == 0 {
			acc += float64(k.slot((r%calKeys + 1) * calMul))
		}
		if i%64 == 0 {
			k.x[i/64%32] = acc * 1e-6
			for a := 0; a < 32; a++ {
				s := 0.0
				for b := 0; b < 32; b++ {
					s += k.w[a*32+b] * k.x[b]
				}
				k.y[a] = math.Tanh(s)
			}
			acc += k.y[0]
		}
	}
	k.sink += acc
}

// slot is where key sits in the hash table, or the empty slot where it
// would go.
func (k *calKernel) slot(key uint64) uint64 {
	i := (key * calMul) >> (64 - calSlotBits)
	for k.keys[i] != 0 && k.keys[i] != key {
		i = (i + 1) % calSlots
	}
	return i
}

func (k *calKernel) push(e calEvent) {
	h := append(k.heap, e)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p].at <= h[i].at {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	k.heap = h
}

func (k *calKernel) pop() calEvent {
	h := k.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		l, m := 2*i+1, i
		if l < n && h[l].at < h[m].at {
			m = l
		}
		if l+1 < n && h[l+1].at < h[m].at {
			m = l + 1
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	k.heap = h
	return top
}

// time runs the kernel once and returns its thread CPU time.
func (k *calKernel) time() time.Duration {
	start := threadCPU()
	k.run()
	return threadCPU() - start
}

// threadCPU is the CPU time the calling OS thread has used. main locks
// its goroutine to one thread, and the in-process workloads run every
// simulation on that goroutine, so the difference of two readings is the
// CPU time the work between them took on its own thread. Unlike wall
// time it leaves out the slices the hypervisor or another process took
// from the core; the kernel's factor covers the rest of the host's drift.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	// It fails only for a bad clock ID or pointer: a bug, not the host.
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic(e)
	}
	return time.Duration(ts.Nano())
}
