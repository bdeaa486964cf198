// Command perfbench is the repository's benchmark. One run executes one
// workload for a fixed wall-clock budget, checks every simulated output,
// and prints its metrics:
//
//	bash perfbench/run.sh --workload paper-figures --seed 1 --seconds 20 --trace 0
//
// Workloads (see BENCHMARK.json for why each was chosen):
//
//   - paper-figures: the six paper figures (experiments.AllCtx, one
//     simulation at a time), repeated over consecutive base seeds.
//   - scale-greedy: experiments.RunScale with the greedy policy on a
//     256-site streaming platform, one op per seed.
//   - daemon-cluster: an in-process coordinator and two worker daemons,
//     driven by a closed loop of two clients submitting points jobs.
//
// With --trace 0 the run reports the end-to-end metrics of an untraced
// timed phase. With --trace 1 it runs the same untraced phase, then
// replays the same ops with per-layer timing and a CPU profile, checks
// that every replayed result is identical, and reports the per-layer
// metrics. The last line of standard output is one JSON object with the
// keys correct, attempted, failed and metrics; the lines before it repeat
// the metrics for a reader. Any output mismatch sets correct to false
// and makes the exit code non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the final JSON line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings every workload receives.
type options struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	// sharesOut, when set, receives the traced run's per-package CPU
	// share table as Markdown rows.
	sharesOut string
}

// report collects what a workload measured and checked.
type report struct {
	attempted, failed int
	endToEnd          map[string]metric
	layers            map[string]float64
	mismatches        []string
	notes             []string
}

func (r *report) mismatch(format string, args ...any) {
	r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options, *report) error{
	"paper-figures":  runPaperFigures,
	"scale-greedy":   runScaleGreedy,
	"daemon-cluster": runDaemonCluster,
}

func main() {
	name := flag.String("workload", "", "workload to run: paper-figures, scale-greedy or daemon-cluster")
	seed := flag.Uint64("seed", 1, "seed the workload derives its inputs from")
	seconds := flag.Float64("seconds", 20, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 replays the ops traced and reports per-layer metrics")
	shares := flag.String("shares-out", "", "with --trace 1, write the per-package CPU share rows to this file")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (paper-figures|scale-greedy|daemon-cluster), --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	// At most two cores and never more than the machine has: threads
	// beyond the cores only queue behind each other and add noise.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	// One OS thread runs every in-process simulation, so its CPU time
	// clock times the ops (see threadCPU).
	runtime.LockOSThread()

	o := options{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, sharesOut: *shares}
	rep := &report{endToEnd: map[string]metric{}, layers: map[string]float64{}}
	if err := run(o, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}

	out := output{Correct: len(rep.mismatches) == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: rep.endToEnd}
	if o.trace {
		m, err := layerMetrics(rep.layers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		out.Metrics = m
	}
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	for _, k := range sortedKeys(out.Metrics) {
		fmt.Printf("%-32s %14.6g %s\n", k, out.Metrics[k].Value, out.Metrics[k].Unit)
	}
	for _, m := range rep.mismatches {
		fmt.Fprintf(os.Stderr, "perfbench: MISMATCH: %s\n", m)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// baseSeed spreads the --seed values far apart, so the simulation seeds
// of two runs with different --seed never overlap.
func baseSeed(seed uint64) uint64 { return seed*1_000_000 + 1_000 }
