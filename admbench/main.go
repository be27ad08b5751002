// Command admbench is the admission benchmark of gmfnet. It replays a
// seeded, fixed request trace through the admission stack — in process
// through ParallelController.SubmitBatch, or over loopback TCP through
// an admitd.Server — and prints one JSON object with the end-to-end
// metrics (untraced run) or the per-layer metrics (traced run) as the
// last line of its standard output.
//
// Usage:
//
//	admbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//
// A run repeats whole rounds of the same replays for S seconds: it
// makes minRounds rounds, and more while another still ends within S
// seconds; the checks follow. A round replays each
// of the workload's traces once; every replay builds its trace,
// topology and controller afresh, replays an untimed warm-up prefix and
// then the timed remainder. The reported figures are medians over
// rounds. After the rounds every decision is checked apart from the
// incremental engine (see check.go); a failed check prints the result
// with "correct": false and exits 1.
//
// The traced run (--trace 1) replays one untraced and one traced round,
// records a span around every call into the program, runs the core and
// gmf side passes and a contention pass at runtime.NumCPU() procs, and
// reports the per-layer metrics; spans are written to
// DIR/spans-<workload>.jsonl, those of the side replay to
// DIR/spans-<workload>-side.jsonl.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// pinnedProcs is the GOMAXPROCS every run uses; the shard worker pool
// has the same size. On a shared two-vCPU machine the second vCPU's
// availability follows the neighbours' load: with GOMAXPROCS 2, ten
// backbone-steady runs drifted from 15.3k to 11.9k req/s at a steady
// CPU cost per request. With one proc the wall-clock figures follow the
// program's own work.
const pinnedProcs = 1

// minRounds is the least number of rounds a run replays, however long
// a round takes.
const minRounds = 3

// minSubmissions is the least number of latency samples a round takes,
// so that at least ten lie beyond its 99th percentile.
const minSubmissions = 1000

// minSetups is the least number of set-ups whose median is setup_s.
const minSetups = 15

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("admbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed: the trace synthesizer's RNG seed")
	seconds := fs.Int("seconds", 30, "replay whole rounds for this many seconds")
	traced := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	out := fs.String("out", ".bench_build", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "admbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	procs := pinnedProcs
	runtime.GOMAXPROCS(procs)
	fmt.Fprintf(stderr, "admbench: workload %s seed %d GOMAXPROCS %d workers %d\n", w.name, *seed, procs, procs)

	b := &bench{w: w, seed: *seed, workers: procs, log: stderr}
	var (
		res *result
		err error
	)
	if *traced == 1 {
		res, err = b.runTraced(*out)
	} else {
		res, err = b.runTimed(time.Duration(*seconds) * time.Second)
	}
	if err != nil {
		fmt.Fprintln(stderr, "admbench:", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(stderr, "admbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}
