package main

import (
	"fmt"
	"time"

	"rlsched/internal/experiments"
	"rlsched/internal/platform"
	"rlsched/internal/rng"
	"rlsched/internal/sched"
)

// Scale-greedy input size: above 64 sites the engine routes by prefix
// sums, and 25,000 tasks keep one op near 50 ms, so a run times well over
// the 100 ops a p90 needs.
const (
	scaleSites  = 256
	scaleTasks  = 25_000
	scaleMinOps = 100
)

// scaleConfig is op k's scenario: the greedy policy on a LowMemory
// streaming platform fed by the diurnal source.
func scaleConfig(seed uint64) experiments.ScaleConfig {
	return experiments.ScaleConfig{
		Sites:        scaleSites,
		NodesPerSite: 2,
		NumTasks:     scaleTasks,
		Load:         0.7,
		Amplitude:    0.6,
		Policy:       experiments.Greedy,
		Seed:         seed,
	}
}

// runScaleGreedy runs one RunScale op per seed until the time budget is
// spent and at least scaleMinOps ops are done.
func runScaleGreedy(o options, rep *report) error {
	base := baseSeed(o.seed)
	kernel, err := newCalKernel()
	if err != nil {
		return err
	}
	setup := &setupSampler{interval: time.Second, kernel: kernel, setup: func() error {
		c := scaleConfig(base - 1)
		if err := c.Validate(); err != nil {
			return err
		}
		_, err := experiments.RunScale(c)
		return err
	}}
	if err := setup.run(); err != nil {
		return err
	}

	var results []headline
	ph := startPhase(kernel)
	for k := uint64(0); len(results) < scaleMinOps || ph.since() < o.seconds; k++ {
		start := now()
		res, err := experiments.RunScale(scaleConfig(base + k))
		ph.opSince(start, res.Completed, err != nil)
		if err != nil {
			ph.stop()
			ph.endToEnd(rep, setup.median(rep))
			rep.mismatch("scale op %d failed: %v", k, err)
			return nil
		}
		results = append(results, headlineOf(res))
		if err := setup.between(ph); err != nil {
			return err
		}
	}
	ph.stop()
	ph.endToEnd(rep, setup.median(rep))

	d := newDigest()
	for k, r := range results {
		if k < scaleMinOps {
			d.point(fmt.Sprintf("scale seed=%d", base+uint64(k)), r.avert, r.ecs, r.success, r.util)
		}
		if r.completed != scaleTasks {
			rep.mismatch("scale op %d completed %d of %d tasks", k, r.completed, scaleTasks)
		}
	}
	rep.note("digest %s over the first %d ops", d, d.n)

	if !o.trace {
		// The untraced run checks the decomposed pipeline on its first
		// op; the traced run replays every op through it.
		res, _, err := decomposedScale(scaleConfig(base))
		if err != nil {
			return fmt.Errorf("decomposed pipeline: %w", err)
		}
		if headlineOf(res) != results[0] {
			rep.mismatch("decomposed pipeline differs from RunScale at seed %d", base)
		}
		return nil
	}
	return traceScaleGreedy(o, rep, results, ph.tasksPerSecond())
}

// scaleTiming is what one decomposed op spent in each layer.
type scaleTiming struct {
	generate, build, next, total time.Duration
	policy                       *policyTimer
}

// decomposedScale is RunScale taken apart at its layer boundaries —
// platform generation, the workload source, the policy and the engine —
// so each can be timed. It must produce RunScale's result exactly;
// the benchmark checks that it does.
func decomposedScale(c experiments.ScaleConfig) (sched.Result, scaleTiming, error) {
	var t scaleTiming
	start := time.Now()
	r := rng.NewStream(c.Seed, fmt.Sprintf("scale-%s-s%d-n%d", c.Policy, c.Sites, c.NumTasks))
	pcfg := platform.DefaultGenConfig()
	pcfg.Sites = c.Sites
	pcfg.MinNodesPerSite, pcfg.MaxNodesPerSite = c.NodesPerSite, c.NodesPerSite
	g0 := time.Now()
	pl, err := platform.Generate(pcfg, r.Split("platform"))
	t.generate = time.Since(g0)
	if err != nil {
		return sched.Result{}, t, err
	}
	src, _, err := c.Workload(r.Split("workload"))
	if err != nil {
		return sched.Result{}, t, err
	}
	pol, err := experiments.NewPolicy(c.Policy)
	if err != nil {
		return sched.Result{}, t, err
	}
	t.policy = &policyTimer{Policy: pol}
	st := &sourceTimer{src: src}
	ecfg := sched.DefaultConfig()
	ecfg.LowMemory = true
	eng, err := sched.NewFromSource(ecfg, pl, st, t.policy, r.Split("engine"))
	if err != nil {
		return sched.Result{}, t, err
	}
	t.build = time.Since(start)
	res, err := eng.Run()
	t.next = st.next
	t.total = time.Since(start)
	return res, t, err
}

// traceScaleGreedy replays every op through the decomposed pipeline
// under a CPU profile and checks each result against RunScale's.
func traceScaleGreedy(o options, rep *report, results []headline, untracedTPS float64) error {
	base := baseSeed(o.seed)
	var (
		eng                                 engineTally
		choose, place, feedback, next, self time.Duration
		generate                            time.Duration
		elapsed                             time.Duration
	)
	shares, err := cpuProfile(func() error {
		start := time.Now()
		for k, want := range results {
			res, t, err := decomposedScale(scaleConfig(base + uint64(k)))
			if err != nil {
				return err
			}
			if headlineOf(res) != want {
				rep.mismatch("decomposed pipeline differs from RunScale at seed %d", base+uint64(k))
			}
			eng.add(res)
			p := t.policy
			choose, place, feedback = choose+p.choose, place+p.place, feedback+p.feedback
			next += t.next
			generate += t.generate
			self += t.total - t.build - t.next - p.choose - p.place - p.feedback
		}
		elapsed = time.Since(start)
		return nil
	})
	if err != nil {
		return fmt.Errorf("traced replay: %w", err)
	}
	n := float64(len(results))
	rep.layers["policy.choose_ms_per_op"] = ms(choose) / n
	rep.layers["policy.place_ms_per_op"] = ms(place) / n
	rep.layers["policy.feedback_ms_per_op"] = ms(feedback) / n
	rep.layers["sched.self_ms_per_op"] = ms(self) / n
	rep.layers["workload.next_ms_per_op"] = ms(next) / n
	rep.layers["platform.generate_ms"] = ms(generate) / n
	eng.fill(rep)
	rep.layers["trace.overhead_ratio"] = untracedTPS / (eng.tasks / elapsed.Seconds())
	rep.note("traced replay: %d ops in %.3f s", len(results), elapsed.Seconds())
	return fillShares(rep, o, "scale-greedy", shares)
}
