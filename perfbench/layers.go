package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"rlsched/internal/grouping"
	"rlsched/internal/platform"
	"rlsched/internal/sched"
	"rlsched/internal/workload"
)

// policyTimer forwards every call to the wrapped policy and sums the
// time spent in the decision, placement and feedback hooks. It draws no
// randomness and changes no argument, so results stay identical.
type policyTimer struct {
	sched.Policy
	choose, place, feedback time.Duration
}

func (p *policyTimer) ChooseAction(ctx *sched.Context, ag *sched.Agent, t *workload.Task) sched.Action {
	start := time.Now()
	a := p.Policy.ChooseAction(ctx, ag, t)
	p.choose += time.Since(start)
	return a
}

func (p *policyTimer) PlaceGroup(ctx *sched.Context, ag *sched.Agent, g *grouping.Group, c []sched.NodeInfo) *platform.Node {
	start := time.Now()
	n := p.Policy.PlaceGroup(ctx, ag, g, c)
	p.place += time.Since(start)
	return n
}

func (p *policyTimer) OnAssigned(ctx *sched.Context, ag *sched.Agent, g *grouping.Group, n *platform.Node) {
	start := time.Now()
	p.Policy.OnAssigned(ctx, ag, g, n)
	p.feedback += time.Since(start)
}

func (p *policyTimer) OnGroupComplete(ctx *sched.Context, ag *sched.Agent, g *grouping.Group) {
	start := time.Now()
	p.Policy.OnGroupComplete(ctx, ag, g)
	p.feedback += time.Since(start)
}

// sourceTimer sums the time spent pulling tasks from a workload source.
type sourceTimer struct {
	src  workload.Source
	next time.Duration
}

func (s *sourceTimer) Next() (*workload.Task, bool) {
	start := time.Now()
	t, ok := s.src.Next()
	s.next += time.Since(start)
	return t, ok
}

// engineTally sums the engine's own per-run counters (sched.RunStats)
// over the ops of a traced replay.
type engineTally struct {
	tasks, events, backlogged, groups, splits float64
	lookups, hits, evictions                  float64
	heapHighWater                             float64
}

func (e *engineTally) add(r sched.Result) {
	s := r.Stats
	e.tasks += float64(r.Completed)
	e.events += float64(s.Events)
	e.backlogged += float64(s.Backlogged)
	e.groups += float64(s.GroupsPlaced)
	e.splits += float64(s.Splits)
	e.lookups += float64(s.MemoryLookups)
	e.hits += float64(s.MemoryHits)
	e.evictions += float64(s.MemoryEvictions)
	if hw := float64(s.HeapHighWater); hw > e.heapHighWater {
		e.heapHighWater = hw
	}
}

// fill writes the engine-counter rows of the per-layer metrics.
func (e *engineTally) fill(rep *report) {
	per := func(x float64) float64 { return ratio(x, e.tasks) }
	rep.layers["memory.lookups_per_task"] = per(e.lookups)
	rep.layers["memory.hit_ratio"] = ratio(e.hits, e.lookups)
	rep.layers["memory.evictions_per_task"] = per(e.evictions)
	rep.layers["sched.events_per_task"] = per(e.events)
	rep.layers["sched.backlogged_per_task"] = per(e.backlogged)
	rep.layers["des.heap_high_water"] = e.heapHighWater
	rep.layers["grouping.groups_per_task"] = per(e.groups)
	rep.layers["grouping.splits_per_task"] = per(e.splits)
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// perLayerNames lists every per-layer metric but the CPU shares, with its
// unit.
var perLayerNames = []struct{ name, unit string }{
	{"policy.choose_ms_per_op", "ms"},
	{"policy.place_ms_per_op", "ms"},
	{"policy.feedback_ms_per_op", "ms"},
	{"memory.lookups_per_task", "lookups/task"},
	{"memory.hit_ratio", "ratio"},
	{"memory.evictions_per_task", "evictions/task"},
	{"sched.self_ms_per_op", "ms"},
	{"sched.events_per_task", "events/task"},
	{"sched.backlogged_per_task", "count/task"},
	{"des.heap_high_water", "events"},
	{"grouping.groups_per_task", "groups/task"},
	{"grouping.splits_per_task", "splits/task"},
	{"workload.next_ms_per_op", "ms"},
	{"experiments.build_ms_per_op", "ms"},
	{"platform.generate_ms", "ms"},
	{"server.submit_ms_p50", "ms"},
	{"server.wait_ms_p50", "ms"},
	{"server.result_ms_p50", "ms"},
	{"server.queue_wait_ms_p50", "ms"},
	{"cache.hit_ratio", "ratio"},
	{"cache.puts_per_job", "puts/job"},
	{"cluster.leases_per_job", "leases/job"},
	{"cluster.lease_ms_p50", "ms"},
	{"cluster.retries_per_job", "retries/job"},
	{"cluster.hedges_per_job", "hedges/job"},
	{"cluster.local_points_ratio", "ratio"},
	{"cluster.lease_idle_share", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// cpuLayers are the layers whose CPU share the traced run reports: the
// repository's packages (baselines/* fold into core) plus the runtime's
// background garbage collector.
var cpuLayers = []string{
	"rng", "des", "workload", "platform", "energy", "grouping", "memory", "neural",
	"sched", "core", "metrics", "experiments", "server", "config", "cache", "cluster", "gc",
}

// layerMetrics turns the per-layer values a traced run recorded into
// the reported metrics: every metric of perLayerNames and cpuLayers, with
// 0 for a layer the workload does not reach.
func layerMetrics(values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(perLayerNames)+len(cpuLayers))
	for _, m := range perLayerNames {
		out[m.name] = metric{values[m.name], m.unit}
	}
	for _, l := range cpuLayers {
		out["cpu_share."+l] = metric{values["cpu_share."+l], "share"}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("per-layer metric %q is not declared", name)
		}
	}
	return out, nil
}

// cpuProfile records a CPU profile of this process while fn runs and
// returns the share of samples per package.
func cpuProfile(fn func() error) (map[string]float64, error) {
	dir := filepath.Join(".bench_build", "profiles")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("cpu-%d.pprof", os.Getpid()))
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	defer os.Remove(path)
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	runErr := fn()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, err
	}
	if runErr != nil {
		return nil, runErr
	}
	return packageShares(path)
}

// packageShares attributes every sample of a CPU profile to the
// innermost rlsched/internal/* frame of its stack, read with the
// toolchain's own `go tool pprof -traces`. Samples with no such frame go
// to "gc" when they run in the background mark worker and to "other"
// otherwise (the benchmark harness, net/http, the scheduler, syscalls).
func packageShares(path string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	raw, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	weights := map[string]float64{}
	var total float64
	var (
		inTrace bool
		value   float64
		frames  []string
	)
	flush := func() {
		if !inTrace || value == 0 {
			return
		}
		pkg := "other"
		for _, fr := range frames {
			if p, ok := internalPackage(fr); ok {
				pkg = p
				break
			}
			if strings.HasPrefix(fr, "runtime.gcBgMarkWorker") {
				pkg = "gc"
			}
		}
		weights[pkg] += value
		total += value
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inTrace, value, frames = true, 0, frames[:0]
			continue
		}
		if !inTrace {
			continue
		}
		// A trace is a "<value> <leaf frame>" line followed by one
		// caller frame per line, innermost first.
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(frames) == 0 && len(fields) >= 2 {
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("go tool pprof: unexpected trace line %q", line)
			}
			value = float64(d)
			frames = append(frames, fields[1])
			continue
		}
		frames = append(frames, fields[0])
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if total == 0 {
		return nil, fmt.Errorf("CPU profile %s holds no samples", path)
	}
	for k := range weights {
		weights[k] /= total
	}
	return weights, nil
}

// internalPackage extracts the package below rlsched/internal/ from a
// symbol such as "rlsched/internal/baselines/qplus.(*Policy).Init".
func internalPackage(sym string) (string, bool) {
	rest, ok := strings.CutPrefix(sym, "rlsched/internal/")
	if !ok {
		return "", false
	}
	slash := strings.LastIndex(rest, "/")
	dot := strings.Index(rest[slash+1:], ".")
	if dot < 0 {
		return rest, true
	}
	return rest[:slash+1+dot], true
}

// layerOf maps a package to its reported layer.
func layerOf(pkg string) string {
	if strings.HasPrefix(pkg, "baselines/") {
		return "core"
	}
	return pkg
}

// fillShares writes the cpu_share.* rows and, when asked, the full
// per-package table.
func fillShares(rep *report, o options, workload string, shares map[string]float64) error {
	byLayer := map[string]float64{}
	for pkg, s := range shares {
		byLayer[layerOf(pkg)] += s
	}
	for _, l := range cpuLayers {
		rep.layers["cpu_share."+l] = byLayer[l]
	}
	if o.sharesOut == "" {
		return nil
	}
	pkgs := sortedKeys(shares)
	sort.SliceStable(pkgs, func(i, j int) bool { return shares[pkgs[i]] > shares[pkgs[j]] })
	var b strings.Builder
	for _, p := range pkgs {
		fmt.Fprintf(&b, "| %s | %s | %.1f%% |\n", workload, p, 100*shares[p])
	}
	return os.WriteFile(o.sharesOut, []byte(b.String()), 0o644)
}
