package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"rlsched/internal/sched"
)

// Samples read from runtime/metrics: the live heap at an op boundary and
// the cumulative allocation counters bracketing the timed phase.
var heapSample = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}

func allocCounters() (objects, bytes float64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/tiny/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return float64(s[0].Value.Uint64() + s[1].Value.Uint64()), float64(s[2].Value.Uint64())
}

// phase is one timed phase: op latencies, live-heap samples at op
// boundaries, the tasks the ops completed and the allocations made. It is
// safe for concurrent use by the daemon workload's two clients.
//
// A phase with a calibration kernel (see calibrate.go) times its ops on
// the reference clock. It runs the kernel before the phase starts, then
// between ops about every calEvery of thread CPU time and once more at
// the end, aside from the phase. The stretch between two kernels is a
// segment. A segment's reference length is its thread CPU time times
// refKernel over the mean of the two kernels around it, and an op's
// reference time is its thread CPU time times its segment's factor.
// Without a kernel the reference clock is the wall clock.
type phase struct {
	mu                sync.Mutex
	start             time.Time
	paused, elapsed   time.Duration
	objects0, bytes0  float64
	objects, bytes    float64
	lat, heap         []float64
	tasks             float64
	attempted, failed int

	kernel              *calKernel
	cpuStart, cpuPaused time.Duration
	cpuLat              []float64     // op thread CPU times, ms
	latSeg              []int         // segment of each op
	kernels             []float64     // kernel thread CPU times, ms
	segs                []float64     // segment thread CPU times, s
	segStart            time.Duration // cpuSince at the last kernel
	refLat              []float64     // op times on the reference clock, ms
	refSecs             float64       // phase length on the reference clock
}

// calEvery is the thread CPU time between two calibration kernels: short
// enough to follow the host's drift, long enough that a 5 ms kernel adds
// a tenth to the run.
const calEvery = 50 * time.Millisecond

// startPhase forces a collection, so garbage left by set-up is not
// charged to the timed ops, runs the first kernel and starts the clock.
func startPhase(k *calKernel) *phase {
	runtime.GC()
	p := &phase{kernel: k}
	if k != nil {
		p.kernels = append(p.kernels, ms(k.time()))
	}
	p.objects0, p.bytes0 = allocCounters()
	p.start, p.cpuStart = time.Now(), threadCPU()
	return p
}

// mark is a moment on both clocks: wall time and the thread's CPU time.
type mark struct {
	wall time.Time
	cpu  time.Duration
}

func now() mark { return mark{time.Now(), threadCPU()} }

// opSince records one finished in-process op that started at m.
func (p *phase) opSince(m mark, tasks int, failed bool) {
	cpu := threadCPU() - m.cpu
	p.record(time.Since(m.wall), cpu, tasks, failed)
}

// op records one finished op of wall time d: a daemon job, whose work
// runs on other goroutines.
func (p *phase) op(d time.Duration, tasks int, failed bool) { p.record(d, 0, tasks, failed) }

func (p *phase) record(wall, cpu time.Duration, tasks int, failed bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	metrics.Read(heapSample)
	p.heap = append(p.heap, float64(heapSample[0].Value.Uint64())/(1<<20))
	p.lat = append(p.lat, ms(wall))
	p.attempted++
	if failed {
		p.failed++
	} else {
		p.tasks += float64(tasks)
	}
	if p.kernel == nil {
		return
	}
	p.cpuLat = append(p.cpuLat, ms(cpu))
	p.latSeg = append(p.latSeg, len(p.segs))
	if p.cpuSince()-p.segStart >= calEvery {
		p.calibrate()
	}
}

// calibrate ends the current segment and runs the kernel aside.
func (p *phase) calibrate() {
	p.segs = append(p.segs, (p.cpuSince() - p.segStart).Seconds())
	p.aside(func() { p.kernels = append(p.kernels, ms(p.kernel.time())) })
	p.segStart = p.cpuSince()
}

// aside runs fn between ops with the clocks stopped: its wall time, its
// thread CPU time and its allocations are not charged to the phase.
func (p *phase) aside(fn func()) {
	o0, b0 := allocCounters()
	m := now()
	fn()
	p.cpuPaused += threadCPU() - m.cpu
	p.paused += time.Since(m.wall)
	o1, b1 := allocCounters()
	p.objects0 += o1 - o0
	p.bytes0 += b1 - b0
}

// cpuSince is the phase's thread CPU time, pauses excluded.
func (p *phase) cpuSince() time.Duration { return threadCPU() - p.cpuStart - p.cpuPaused }

// since is the phase's running time, pauses excluded.
func (p *phase) since() time.Duration { return time.Since(p.start) - p.paused }

func (p *phase) stop() {
	p.elapsed = p.since()
	if p.kernel == nil {
		p.refLat, p.refSecs = p.lat, p.elapsed.Seconds()
	} else {
		p.calibrate()
		factor := make([]float64, len(p.segs))
		for i, s := range p.segs {
			factor[i] = ms(refKernel) / ((p.kernels[i] + p.kernels[i+1]) / 2)
			p.refSecs += s * factor[i]
		}
		for i, c := range p.cpuLat {
			p.refLat = append(p.refLat, c*factor[p.latSeg[i]])
		}
	}
	o, b := allocCounters()
	p.objects, p.bytes = o-p.objects0, b-p.bytes0
}

// tasksPerSecond is simulated tasks completed per host second of wall
// time.
func (p *phase) tasksPerSecond() float64 { return p.tasks / p.elapsed.Seconds() }

// endToEnd fills the report's end-to-end metrics from a stopped phase.
func (p *phase) endToEnd(rep *report, setupS float64) {
	tasks := math.Max(p.tasks, 1)
	ok := float64(p.attempted-p.failed) / float64(p.attempted)
	rep.attempted, rep.failed = p.attempted, p.failed
	rep.endToEnd["setup_s"] = metric{setupS, "s"}
	rep.endToEnd["tasks_per_s"] = metric{p.tasks / p.refSecs, "tasks/s"}
	rep.endToEnd["op_ms_p50"] = metric{quantile(p.refLat, 0.50), "ms"}
	rep.endToEnd["op_ms_p90"] = metric{quantile(p.refLat, 0.90), "ms"}
	rep.endToEnd["heap_mib_p99"] = metric{quantile(p.heap, 0.99), "MiB"}
	rep.endToEnd["allocs_per_task"] = metric{p.objects / tasks, "allocs/task"}
	rep.endToEnd["alloc_bytes_per_task"] = metric{p.bytes / tasks, "B/task"}
	rep.endToEnd["ok_ratio"] = metric{ok, "ratio"}
	rep.note("timed phase: %d ops (%d failed), %.0f tasks in %.3f s wall, %.3f s reference; op times over %d samples",
		p.attempted, p.failed, p.tasks, p.elapsed.Seconds(), p.refSecs, len(p.lat))
	if p.kernel != nil {
		rep.note("calibration: %d kernels, thread CPU ms p10 %.3f  p50 %.3f  p90 %.3f (reference %.3f)",
			len(p.kernels), quantile(p.kernels, 0.1), median(p.kernels), quantile(p.kernels, 0.9), ms(refKernel))
		rep.note("wall clock: %.0f tasks/s, op ms p50 %.3f  p90 %.3f", p.tasksPerSecond(), quantile(p.lat, 0.5), quantile(p.lat, 0.9))
	}
	rep.note("op ms on the reference clock: p10 %.3f  p25 %.3f  p50 %.3f  p75 %.3f  p90 %.3f  p99 %.3f  max %.3f",
		quantile(p.refLat, 0.1), quantile(p.refLat, 0.25), quantile(p.refLat, 0.5), quantile(p.refLat, 0.75),
		quantile(p.refLat, 0.9), quantile(p.refLat, 0.99), quantile(p.refLat, 1))
}

// quantile is the q-quantile of xs, interpolated linearly between order
// statistics; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// setupSampler times a workload's set-up: once before the timed phase,
// and for an in-process workload again about every interval between ops,
// with the phase clock stopped. On a shared VM the machine's speed drifts
// by a third over stretches of a few hundred milliseconds, so set-ups run
// back to back would all land in one stretch; spread over the run, their
// median is as steady as the timed metrics. With a calibration kernel,
// each set-up runs between two kernels and is timed on the reference
// clock, as a phase's ops are.
type setupSampler struct {
	setup    func() error
	interval time.Duration
	kernel   *calKernel
	last     time.Time
	durs     []float64
}

func (s *setupSampler) run() error {
	var k0 time.Duration
	if s.kernel != nil {
		k0 = s.kernel.time()
	}
	start := now()
	if err := s.setup(); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	d := time.Since(start.wall).Seconds()
	if s.kernel != nil {
		d = (threadCPU() - start.cpu).Seconds() * ms(refKernel) / ((ms(k0) + ms(s.kernel.time())) / 2)
	}
	s.last = time.Now()
	s.durs = append(s.durs, d)
	return nil
}

// between re-runs the set-up aside from the phase once interval has
// passed since the last run.
func (s *setupSampler) between(ph *phase) error {
	if time.Since(s.last) < s.interval {
		return nil
	}
	var err error
	ph.aside(func() { err = s.run() })
	return err
}

// median reports the median set-up time in seconds.
func (s *setupSampler) median(rep *report) float64 {
	rep.note("set-up s: %.4f", s.durs)
	return median(s.durs)
}

// digest hashes simulated outputs — per point its identity and the four
// headline statistics, as exact float bits — so two runs can be compared
// at a glance: a change that only touches host performance must leave it
// unchanged.
type digest struct {
	h hash.Hash
	n int
}

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) point(label string, avert, ecs, success, util float64) {
	d.h.Write([]byte(label))
	var b [8]byte
	for _, v := range []float64{avert, ecs, success, util} {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		d.h.Write(b[:])
	}
	d.n++
}

func (d *digest) String() string {
	return "sha256:" + hex.EncodeToString(d.h.Sum(nil))
}

// headline is the part of a result the checks compare, kept instead of
// the whole result so the benchmark's own memory does not grow with the
// number of ops: a full result retains every task record.
type headline struct {
	submitted, completed, deadlineHits       int
	avert, meanWait, ecs, success, util, end float64
	stats                                    sched.RunStats
	utilWindows                              string
}

func headlineOf(r sched.Result) headline {
	return headline{
		submitted: r.Submitted, completed: r.Completed, deadlineHits: r.DeadlineHits,
		avert: r.AveRT, meanWait: r.MeanWait, ecs: r.ECS, success: r.SuccessRate,
		util: r.MeanUtilization, end: r.EndTime, stats: r.Stats,
		utilWindows: fmt.Sprint(r.UtilWindows),
	}
}
