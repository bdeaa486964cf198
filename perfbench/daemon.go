package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"rlsched/internal/config"
	"rlsched/internal/experiments"
	"rlsched/internal/obs/span"
	"rlsched/internal/server"
)

// Daemon-cluster input size. Every job holds two adaptive-rl points of
// 8,000 tasks: a fresh one and the fresh point of an earlier job, which
// the coordinator's cache serves. The coordinator runs one job at a time,
// the daemon default, so one miss per job keeps at most one simulation
// running and leaves a core free for the lease's HTTP calls. The lease's
// first status call then always finds the point still running, and every
// job takes the same number of 100 ms poll ticks. With two jobs or two
// misses at once, status calls wait for a core behind the simulations.
// With light points, the point's job settles about as fast as a status
// call arrives. Either way some leases end early at random, and job
// latency splits between multiples of 100 ms from run to run.
const (
	daemonTasks   = 8000
	daemonFresh   = 1
	daemonPoints  = 2 * daemonFresh
	daemonClients = 2
	daemonMinJobs = 100
	jobTimeout    = 60 * time.Second
)

// daemon is one in-process rlsimd behind an httptest loopback listener.
type daemon struct {
	srv *server.Server
	ts  *httptest.Server
}

func startDaemon(opts server.Options) (*daemon, error) {
	srv, err := server.New(opts)
	if err != nil {
		return nil, err
	}
	return &daemon{srv: srv, ts: httptest.NewServer(srv)}, nil
}

func (d *daemon) close() {
	d.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = d.srv.Shutdown(ctx) // every job has settled; nothing is left to drain
}

// benchCluster is a coordinator fanning points out to two workers. The
// cache is memory-only and there is no journal, so no fsync is timed.
type benchCluster struct {
	hc      *http.Client
	workers []*daemon
	coord   *daemon
}

func (c *benchCluster) close() {
	if c.coord != nil {
		c.coord.close()
	}
	for _, w := range c.workers {
		w.close()
	}
	c.hc.CloseIdleConnections()
}

func daemonPoint(seed uint64) experiments.RunSpec {
	return experiments.RunSpec{Policy: experiments.AdaptiveRL, NumTasks: daemonTasks, Seed: seed}
}

// warmPoints is the set-up's untimed warm-up job: one fresh point.
func warmPoints(base uint64) []experiments.RunSpec {
	return []experiments.RunSpec{daemonPoint(base - 1)}
}

// jobPoints is job j's points: a fresh one, then the fresh point of job
// j-2 — the same client's previous job, so it is always cached. A
// client's first job repeats the warm-up point instead.
func jobPoints(base uint64, j int) []experiments.RunSpec {
	fresh := func(j int) []experiments.RunSpec {
		pts := make([]experiments.RunSpec, daemonFresh)
		for i := range pts {
			pts[i] = daemonPoint(base + uint64(daemonFresh*j+i))
		}
		return pts
	}
	if j < daemonClients {
		w := warmPoints(base)[0]
		return append(fresh(j), w)
	}
	return append(fresh(j), fresh(j-daemonClients)...)
}

// startCluster starts two workers and a coordinator, waits until both
// workers are registered alive, and runs the warm-up job.
func startCluster(base uint64) (*benchCluster, error) {
	c := &benchCluster{hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}}
	for i := 0; i < 2; i++ {
		w, err := startDaemon(server.Options{Cluster: config.ClusterSpec{Worker: true}})
		if err != nil {
			c.close()
			return nil, err
		}
		c.workers = append(c.workers, w)
	}
	coord, err := startDaemon(server.Options{
		Cluster: config.ClusterSpec{Peers: []string{c.workers[0].ts.URL, c.workers[1].ts.URL}},
	})
	if err != nil {
		c.close()
		return nil, err
	}
	c.coord = coord
	if err := c.waitAlive(); err != nil {
		c.close()
		return nil, err
	}
	if j, err := c.runJob(warmPoints(base), false); err != nil || j.state != "done" {
		c.close()
		return nil, fmt.Errorf("warm-up job: state %q: %v", j.state, err)
	}
	return c, nil
}

func (c *benchCluster) waitAlive() error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var st server.ClusterStatus
		if err := c.getJSON(context.Background(), c.coord.ts.URL+"/v1/cluster", &st); err != nil {
			return err
		}
		alive := 0
		for _, w := range st.Workers {
			if w.Alive {
				alive++
			}
		}
		if alive == len(c.workers) {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("workers not alive after 10s")
}

func (c *benchCluster) getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// jobRun is one job as its client saw it.
type jobRun struct {
	issued                      bool
	id                          string
	state                       string
	submit, wait, result, total time.Duration
	points                      []byte // the result's "points" array, verbatim
}

// runJob submits a points job, waits for "done" on its SSE progress
// stream, and reads the result: the whole exchange every API caller
// makes, coordinator lease clients included.
func (c *benchCluster) runJob(pts []experiments.RunSpec, spans bool) (jobRun, error) {
	var j jobRun
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	body, err := json.Marshal(struct {
		Kind   string                `json:"kind"`
		Points []experiments.RunSpec `json:"points"`
		Spans  bool                  `json:"spans,omitempty"`
	}{config.JobPoints, pts, spans})
	if err != nil {
		return j, err
	}
	url := c.coord.ts.URL + "/v1/jobs"
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return j, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return j, err
	}
	var st server.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return j, fmt.Errorf("submit: HTTP %d: %v", resp.StatusCode, err)
	}
	j.id = st.ID
	j.submit = time.Since(start)

	if j.state, err = c.waitDone(ctx, url+"/"+j.id+"/events"); err != nil {
		return j, err
	}
	j.wait = time.Since(start) - j.submit

	var res struct {
		Points json.RawMessage `json:"points"`
	}
	if err := c.getJSON(ctx, url+"/"+j.id+"/result", &res); err != nil {
		return j, err
	}
	j.points = res.Points
	j.total = time.Since(start)
	j.result = j.total - j.submit - j.wait
	return j, nil
}

// waitDone reads the job's SSE stream until its "done" event and returns
// the terminal state carried in that event.
func (c *benchCluster) waitDone(ctx context.Context, url string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	done := false
	for sc.Scan() {
		line := sc.Text()
		if line == "event: done" {
			done = true
			continue
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok && done {
			var st server.JobStatus
			if err := json.Unmarshal([]byte(data), &st); err != nil {
				return "", err
			}
			return string(st.State), nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("events stream ended without a done event")
}

// drive runs a closed loop of two clients: client i submits jobs i, i+2,
// i+4, ... one at a time, each only after its previous job's result is
// read, until more(j) says stop. Results land in the returned slice by
// job index.
func (c *benchCluster) drive(base uint64, spans bool, more func(j int) bool, done func(j int, r jobRun, err error)) []jobRun {
	var (
		mu   sync.Mutex
		runs []jobRun
		wg   sync.WaitGroup
	)
	wg.Add(daemonClients)
	for i := 0; i < daemonClients; i++ {
		go func(first int) {
			defer wg.Done()
			for j := first; more(j); j += daemonClients {
				r, err := c.runJob(jobPoints(base, j), spans)
				r.issued = true
				done(j, r, err)
				mu.Lock()
				for len(runs) <= j {
					runs = append(runs, jobRun{})
				}
				runs[j] = r
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	return runs
}

// runDaemonCluster drives the cluster for the time budget, then checks
// every job's points against experiments.Run of the same specs.
func runDaemonCluster(o options, rep *report) error {
	base := baseSeed(o.seed)
	// Set-up is bounded by the 100 ms lease poll, not by CPU, so five
	// back-to-back set-ups are steady; each replaces the previous cluster.
	var cl *benchCluster
	setup := &setupSampler{setup: func() (err error) {
		cl, err = startCluster(base)
		return err
	}}
	for i := 0; i < 5; i++ {
		prev := cl
		err := setup.run()
		if prev != nil {
			prev.close()
		}
		if err != nil {
			return err
		}
	}
	ph := startPhase(nil)
	runs := cl.drive(base, false,
		func(j int) bool { return j < daemonMinJobs || ph.since() < o.seconds },
		func(j int, r jobRun, err error) {
			ph.op(r.total, daemonPoints*daemonTasks, err != nil || r.state != "done")
		})
	ph.stop()
	cl.close()
	ph.endToEnd(rep, setup.median(rep))

	// Check every job: the digest covers the first daemonMinJobs jobs,
	// which every run completes.
	d := newDigest()
	ref := map[uint64]server.PointResult{}
	p := experiments.DefaultProfile()
	for j, r := range runs {
		if !r.issued {
			continue // the other client's stretch past the last job
		}
		var got []server.PointResult
		if r.state != "done" || json.Unmarshal(r.points, &got) != nil {
			rep.mismatch("job %d ended in state %q", j, r.state)
			continue
		}
		want := jobPoints(base, j)
		if len(got) != len(want) {
			rep.mismatch("job %d returned %d points, want %d", j, len(got), len(want))
			continue
		}
		for i, g := range got {
			s := want[i]
			w, ok := ref[s.Seed]
			if !ok {
				res, err := experiments.Run(p, s)
				if err != nil {
					return fmt.Errorf("reference run of %s: %w", experiments.PointLabel(s), err)
				}
				w = server.PointResult{Spec: s, AveRT: res.AveRT, ECS: res.ECS, SuccessRate: res.SuccessRate,
					MeanUtilization: res.MeanUtilization, MeanWait: res.MeanWait, EndTime: res.EndTime, Completed: res.Completed}
				ref[s.Seed] = w
			}
			if g != w {
				rep.mismatch("job %d point %d (%s) differs from experiments.Run", j, i, experiments.PointLabel(s))
			}
			if j < daemonMinJobs {
				d.point(experiments.PointLabel(s), g.AveRT, g.ECS, g.SuccessRate, g.MeanUtilization)
			}
		}
	}
	rep.note("digest %s over the %d points of the first %d jobs", d, d.n, daemonMinJobs)
	if !o.trace {
		return nil
	}
	return traceDaemonCluster(o, rep, runs, ph.tasksPerSecond())
}

// traceDaemonCluster replays the same jobs on a fresh cluster with span
// tracing on, times each phase of every job from the client, reads the
// daemons' own /metrics before and after, and checks that every job
// returns the same points as in the untraced run.
func traceDaemonCluster(o options, rep *report, untraced []jobRun, untracedTPS float64) error {
	base := baseSeed(o.seed)
	cl, err := startCluster(base)
	if err != nil {
		return fmt.Errorf("traced set-up: %w", err)
	}
	defer cl.close()
	ctx := context.Background()
	coord0, err := scrape(ctx, cl.hc, cl.coord.ts.URL)
	if err != nil {
		return err
	}
	workers0, err := cl.scrapeWorkers(ctx)
	if err != nil {
		return err
	}

	var (
		mu                   sync.Mutex
		submit, wait, result []float64
		engineNs, leaseNs    float64
		elapsed              time.Duration
	)
	// Each client's issued jobs are a prefix of its own sequence, so the
	// replay stops each client at its first job the untimed run skipped.
	issued := func(j int) bool { return j < len(untraced) && untraced[j].issued }
	n := 0
	for j := range untraced {
		if issued(j) {
			n++
		}
	}
	shares, err := cpuProfile(func() error {
		start := time.Now()
		cl.drive(base, true, issued, func(j int, r jobRun, err error) {
			var sp server.SpansResponse
			if err == nil {
				err = cl.getJSON(ctx, cl.coord.ts.URL+"/v1/jobs/"+r.id+"/spans", &sp)
			}
			e, l := leaseSpanTime(sp.Spans)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				rep.mismatch("traced job %d: %v", j, err)
				return
			}
			if r.state != "done" || !bytes.Equal(r.points, untraced[j].points) {
				rep.mismatch("traced job %d differs from the untraced run", j)
			}
			submit = append(submit, ms(r.submit))
			wait = append(wait, ms(r.wait))
			result = append(result, ms(r.result))
			engineNs += e
			leaseNs += l
		})
		elapsed = time.Since(start)
		return nil
	})
	if err != nil {
		return fmt.Errorf("traced replay: %w", err)
	}
	coord1, err := scrape(ctx, cl.hc, cl.coord.ts.URL)
	if err != nil {
		return err
	}
	workers1, err := cl.scrapeWorkers(ctx)
	if err != nil {
		return err
	}
	dc := func(name string) float64 { return coord1.sum(name) - coord0.sum(name) }
	dw := func(name string) float64 { return workers1.sum(name) - workers0.sum(name) }
	jobs := float64(n)

	rep.layers["server.submit_ms_p50"] = median(submit)
	rep.layers["server.wait_ms_p50"] = median(wait)
	rep.layers["server.result_ms_p50"] = median(result)
	rep.layers["server.queue_wait_ms_p50"] = 1000 * histQuantile(coord0, coord1, "job_queue_wait_seconds", 0.5)
	hits, misses := dc("cache_hits_total"), dc("cache_misses_total")
	rep.layers["cache.hit_ratio"] = ratio(hits, hits+misses)
	rep.layers["cache.puts_per_job"] = dc("cache_puts_total") / jobs
	rep.layers["cluster.leases_per_job"] = dc("cluster_lease_duration_seconds_count") / jobs
	rep.layers["cluster.lease_ms_p50"] = 1000 * histQuantile(coord0, coord1, "cluster_lease_duration_seconds", 0.5)
	rep.layers["cluster.retries_per_job"] = dc("cluster_lease_retries_total") / jobs
	rep.layers["cluster.hedges_per_job"] = dc("cluster_hedges_total") / jobs
	cached, remote, local := dc("cluster_points_cached_total"), dc("cluster_points_remote_total"), dc("cluster_points_local_total")
	rep.layers["cluster.local_points_ratio"] = ratio(local, cached+remote+local)
	rep.layers["cluster.lease_idle_share"] = 1 - ratio(engineNs, leaseNs)

	// The workers' engine counters, per task they simulated.
	simTasks := (remote + local) * daemonTasks
	per := func(x float64) float64 { return ratio(x, simTasks) }
	rep.layers["memory.lookups_per_task"] = per(dw("memory_lookups_total"))
	rep.layers["memory.hit_ratio"] = ratio(dw("memory_hits_total"), dw("memory_lookups_total"))
	rep.layers["memory.evictions_per_task"] = per(dw("memory_evictions_total"))
	rep.layers["sched.events_per_task"] = per(dw("engine_events_total"))
	rep.layers["sched.backlogged_per_task"] = per(dw("engine_backlogged_total"))
	rep.layers["des.heap_high_water"] = workers1.max("engine_heap_high_water")
	rep.layers["grouping.groups_per_task"] = per(dw("engine_groups_placed_total"))
	rep.layers["grouping.splits_per_task"] = per(dw("engine_splits_total"))

	rep.layers["trace.overhead_ratio"] = untracedTPS / (jobs * daemonPoints * daemonTasks / elapsed.Seconds())
	rep.note("traced replay: %d jobs in %.3f s", n, elapsed.Seconds())
	return fillShares(rep, o, "daemon-cluster", shares)
}

// leaseSpanTime sums, over one job's span trace, the worker-side
// engine.run spans that run under a lease.attempt, and the lease.attempt
// spans themselves, in nanoseconds.
func leaseSpanTime(spans []span.Record) (engine, lease float64) {
	byID := make(map[string]span.Record, len(spans))
	for _, s := range spans {
		byID[s.SpanID] = s
	}
	underLease := func(s span.Record) bool {
		for p, ok := byID[s.ParentID]; ok; p, ok = byID[p.ParentID] {
			if p.Name == "lease.attempt" {
				return true
			}
		}
		return false
	}
	for _, s := range spans {
		switch {
		case s.Name == "lease.attempt":
			lease += float64(s.Duration())
		case s.Name == "engine.run" && underLease(s):
			engine += float64(s.Duration())
		}
	}
	return engine, lease
}

// exposition is one scrape of a Prometheus text exposition: every
// series, keyed by its metric name, with its labels and value.
type exposition map[string][]series

type series struct {
	labels string
	value  float64
}

func scrape(ctx context.Context, hc *http.Client, base string) (exposition, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	e := exposition{}
	e.parse(raw)
	return e, nil
}

func (e exposition) parse(raw []byte) {
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		key, labels := line[:sp], ""
		if br := strings.IndexByte(key, '{'); br >= 0 {
			key, labels = key[:br], key[br:]
		}
		e[key] = append(e[key], series{labels, v})
	}
}

// sum adds a metric over all its label sets.
func (e exposition) sum(name string) float64 {
	var s float64
	for _, x := range e[name] {
		s += x.value
	}
	return s
}

func (e exposition) max(name string) float64 {
	var m float64
	for _, x := range e[name] {
		m = math.Max(m, x.value)
	}
	return m
}

func (c *benchCluster) scrapeWorkers(ctx context.Context) (exposition, error) {
	all := exposition{}
	for _, w := range c.workers {
		e, err := scrape(ctx, c.hc, w.ts.URL)
		if err != nil {
			return nil, err
		}
		for k, v := range e {
			all[k] = append(all[k], v...)
		}
	}
	return all, nil
}

// histQuantile estimates the q-quantile of the observations a histogram
// gained between two scrapes, summed over its label sets, interpolating
// linearly inside the bucket that holds it.
func histQuantile(before, after exposition, name string, q float64) float64 {
	cum := func(e exposition) map[float64]float64 {
		m := map[float64]float64{}
		for _, s := range e[name+"_bucket"] {
			i := strings.Index(s.labels, `le="`)
			if i < 0 {
				continue
			}
			rest := s.labels[i+4:]
			le, err := strconv.ParseFloat(rest[:strings.IndexByte(rest, '"')], 64)
			if err != nil {
				le = math.Inf(1)
			}
			m[le] += s.value
		}
		return m
	}
	b, a := cum(before), cum(after)
	bounds := make([]float64, 0, len(a))
	for le := range a {
		bounds = append(bounds, le)
	}
	sort.Float64s(bounds)
	if len(bounds) == 0 {
		return 0
	}
	total := a[bounds[len(bounds)-1]] - b[bounds[len(bounds)-1]]
	if total == 0 {
		return 0
	}
	target := q * total
	prevLE, prevN := 0.0, 0.0
	for _, le := range bounds {
		n := a[le] - b[le]
		if n >= target {
			if math.IsInf(le, 1) {
				return prevLE
			}
			return prevLE + (le-prevLE)*(target-prevN)/math.Max(n-prevN, 1e-12)
		}
		prevLE, prevN = le, n
	}
	return prevLE
}
