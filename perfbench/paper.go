package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"rlsched/internal/experiments"
	figreport "rlsched/internal/report"
	"rlsched/internal/sched"
)

// paperIteration is one pass over the six paper figures at one base seed.
type paperIteration struct {
	seed    uint64
	csv     string
	specs   []experiments.RunSpec
	results []headline
}

// paperProfile is the default figure profile at a base seed.
func paperProfile(seed uint64, workers int) experiments.Profile {
	p := experiments.DefaultProfile()
	p.Seed = seed
	p.Workers = workers
	return p
}

// figuresCSV renders figures exactly as `experiments -csv` prints them.
func figuresCSV(figs []experiments.Figure) string {
	var b strings.Builder
	for _, f := range figs {
		b.WriteString(figreport.CSV(f))
	}
	return b.String()
}

// runPaperFigures runs all six paper figures with Workers = 1 — one
// simulation at a time — over consecutive base seeds until the time
// budget is spent. An op is one simulation point, timed by
// Profile.PointSpan; the points and their results are captured through
// Profile.RunPoints, which hands each figure's spec list straight back
// to the library's own local runner.
func runPaperFigures(o options, rep *report) error {
	base := baseSeed(o.seed)
	// The set-up's warm-up is one adaptive-rl point at a fixed seed: the
	// cost of a single point moves by a tenth from seed to seed, and
	// setup_s should move with the program, not with --seed.
	warm := experiments.RunSpec{Policy: experiments.AdaptiveRL, NumTasks: experiments.DefaultProfile().HeavyTasks, Seed: 1}
	kernel, err := newCalKernel()
	if err != nil {
		return err
	}
	setup := &setupSampler{interval: time.Second, kernel: kernel, setup: func() error {
		p := paperProfile(base, 1)
		if err := p.Validate(); err != nil {
			return err
		}
		_, err := experiments.Run(p, warm)
		return err
	}}
	if err := setup.run(); err != nil {
		return err
	}

	reps := uint64(experiments.DefaultProfile().Replications)
	var iters []paperIteration
	ph := startPhase(kernel)
	for k := uint64(0); len(iters) == 0 || ph.since() < o.seconds; k++ {
		// Base seeds step by the replication count, so no point repeats.
		it := paperIteration{seed: base + k*reps}
		p := paperProfile(it.seed, 1)
		p.PointSpan = func(_ int, s experiments.RunSpec) func(error) {
			start := now()
			return func(err error) { ph.opSince(start, s.NumTasks, err != nil) }
		}
		p.RunPoints = func(ctx context.Context, q experiments.Profile, specs []experiments.RunSpec) ([]sched.Result, error) {
			q.RunPoints = nil
			res, err := experiments.RunManyCtx(ctx, q, specs)
			if err == nil {
				it.specs = append(it.specs, specs...)
				for _, r := range res {
					it.results = append(it.results, headlineOf(r))
				}
			}
			return res, err
		}
		figs, err := experiments.AllCtx(context.Background(), p)
		if err != nil {
			ph.stop()
			ph.endToEnd(rep, setup.median(rep))
			rep.mismatch("figures at base seed %d failed: %v", it.seed, err)
			return nil
		}
		it.csv = figuresCSV(figs)
		iters = append(iters, it)
		if err := setup.between(ph); err != nil {
			return err
		}
	}
	ph.stop()
	ph.endToEnd(rep, setup.median(rep))

	// The digest covers the first iteration: a fixed amount of work that
	// depends on --seed alone.
	d := newDigest()
	for i, s := range iters[0].specs {
		r := iters[0].results[i]
		d.point(experiments.PointLabel(s), r.avert, r.ecs, r.success, r.util)
	}
	rep.note("digest %s over the %d points of base seed %d", d, d.n, iters[0].seed)

	// Correctness, outside the timed phase: every point completed the
	// tasks the phase counted, and every iteration's figure CSVs equal a
	// rerun with two workers.
	for _, it := range iters {
		for i, s := range it.specs {
			if r := it.results[i]; r.completed != s.NumTasks {
				rep.mismatch("%s completed %d of %d tasks", experiments.PointLabel(s), r.completed, s.NumTasks)
			}
		}
		figs, err := experiments.AllCtx(context.Background(), paperProfile(it.seed, 2))
		if err != nil {
			rep.mismatch("Workers=2 rerun at base seed %d failed: %v", it.seed, err)
			continue
		}
		if got := figuresCSV(figs); got != it.csv {
			rep.mismatch("figure CSVs at base seed %d differ between Workers=1 and Workers=2", it.seed)
		}
	}
	if !o.trace {
		return nil
	}
	return tracePaperFigures(o, rep, iters, ph.tasksPerSecond())
}

// tracePaperFigures replays every point of the timed phase through
// experiments.RunWith with a timed policy, under a CPU profile, and
// checks each result against the untraced one.
func tracePaperFigures(o options, rep *report, iters []paperIteration, untracedTPS float64) error {
	p := paperProfile(baseSeed(o.seed), 1)
	var (
		eng                     engineTally
		choose, place, feedback time.Duration
		build, self             time.Duration
		ops                     int
		elapsed                 time.Duration
	)
	shares, err := cpuProfile(func() error {
		start := time.Now()
		for _, it := range iters {
			for i, s := range it.specs {
				b0 := time.Now()
				if _, _, err := experiments.Build(p, s); err != nil {
					return err
				}
				b := time.Since(b0)
				pol, err := experiments.NewPolicy(s.Policy)
				if err != nil {
					return err
				}
				pt := &policyTimer{Policy: pol}
				r0 := time.Now()
				res, err := experiments.RunWith(p, s, pt)
				run := time.Since(r0)
				if err != nil {
					return err
				}
				if headlineOf(res) != it.results[i] {
					rep.mismatch("traced replay of %s differs from the untraced run", experiments.PointLabel(s))
				}
				eng.add(res)
				choose, place, feedback = choose+pt.choose, place+pt.place, feedback+pt.feedback
				build += b
				// RunWith builds the same scenario again before it runs
				// the engine; charge that to experiments, not sched.
				self += run - b - pt.choose - pt.place - pt.feedback
				ops++
			}
		}
		elapsed = time.Since(start)
		return nil
	})
	if err != nil {
		return fmt.Errorf("traced replay: %w", err)
	}
	n := float64(ops)
	rep.layers["policy.choose_ms_per_op"] = ms(choose) / n
	rep.layers["policy.place_ms_per_op"] = ms(place) / n
	rep.layers["policy.feedback_ms_per_op"] = ms(feedback) / n
	rep.layers["sched.self_ms_per_op"] = ms(self) / n
	rep.layers["experiments.build_ms_per_op"] = ms(build) / n
	eng.fill(rep)
	rep.layers["trace.overhead_ratio"] = untracedTPS / (eng.tasks / elapsed.Seconds())
	rep.note("traced replay: %d ops in %.3f s", ops, elapsed.Seconds())
	return fillShares(rep, o, "paper-figures", shares)
}
