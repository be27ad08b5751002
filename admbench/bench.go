package main

import (
	"fmt"
	"io"
	"time"
)

// Sizes of the correctness checks, per trace.
const (
	sampledDecisions = 12 // requests decided again by the cold oracle
	simClosures      = 6  // closures of the final set simulated
)

// bench runs one workload for one seed.
type bench struct {
	w       *workloadDef
	seed    int64
	workers int
	log     io.Writer
}

// round is one replay of each of the workload's traces.
type round []*replay

// replay replays trace k of the run once with the workload's harness.
func (b *bench) replay(tr *tracer, k int) (*replay, error) {
	seed := b.w.traceSeed(b.seed, k)
	if b.w.daemon {
		return b.daemonReplay(tr, seed)
	}
	return b.inprocReplay(tr, seed)
}

func (b *bench) round(tr *tracer) (round, error) {
	var rd round
	for k := 0; k < b.w.traces; k++ {
		r, err := b.replay(tr, k)
		if err != nil {
			return nil, err
		}
		rd = append(rd, r)
	}
	return rd, nil
}

// Sums over a round's replays.
func (rd round) requests() (n int) {
	for _, r := range rd {
		n += r.requests
	}
	return n
}

func (rd round) elapsed() (d time.Duration) {
	for _, r := range rd {
		d += r.elapsed
	}
	return d
}

func (rd round) cpu() (d time.Duration) {
	for _, r := range rd {
		d += r.cpu
	}
	return d
}

func (rd round) submissions() (n int) {
	for _, r := range rd {
		n += len(r.lat)
	}
	return n
}

func (rd round) rps() float64 { return float64(rd.requests()) / rd.elapsed().Seconds() }

// rounds replays whole rounds, each with at least minSubmissions
// latency samples, for budget: it makes minRounds rounds and then
// starts another only while one more of the rounds' mean wall time
// still ends within budget. Every round must decide exactly like the
// first; only the first keeps its records.
func (b *bench) rounds(budget time.Duration) ([]round, error) {
	var out []round
	start := time.Now()
	for {
		if el := time.Since(start); len(out) >= minRounds && el+el/time.Duration(len(out)) > budget {
			break
		}
		rd, err := b.round(nil)
		if err != nil {
			return nil, err
		}
		if n := rd.submissions(); n < minSubmissions {
			return nil, fmt.Errorf("a round yields %d submissions, fewer than the %d a 99th percentile needs", n, minSubmissions)
		}
		fmt.Fprintf(b.log, "admbench: round %d: %.0f req/s, %.1f CPU-ms/kreq over %v\n", len(out)+1,
			rd.rps(), rd.cpu().Seconds()*1e6/float64(rd.requests()), rd.elapsed().Round(time.Millisecond))
		if len(out) > 0 {
			for k, r := range rd {
				if err := sameVerdicts(out[0][k].rec, r.rec); err != nil {
					return nil, err
				}
				r.rec = nil
			}
		}
		out = append(out, rd)
	}
	return out, nil
}

// sameVerdicts checks that a later round decided exactly like the first:
// the trace is fixed, so any difference is nondeterminism in the program.
func sameVerdicts(a, b *record) error {
	for i := range a.verdict {
		if a.verdict[i] != b.verdict[i] {
			return fmt.Errorf("rounds disagree at op %d (%s %s): verdict %d then %d",
				i, a.ops[i].Op, a.ops[i].Name, a.verdict[i], b.verdict[i])
		}
	}
	return nil
}

// check runs every correctness check on the records of a round and
// reports whether all passed; failures are logged.
func (b *bench) check(rd round) bool {
	ok := true
	for k, r := range rd {
		if !b.checkRecord(r.rec, b.w.traceSeed(b.seed, k)) {
			ok = false
		}
	}
	return ok
}

func (b *bench) checkRecord(rec *record, seed int64) bool {
	ok := true
	fail := func(what string, err error) {
		if err != nil {
			fmt.Fprintf(b.log, "admbench: check %s FAILED (trace seed %d): %v\n", what, seed, err)
			ok = false
		}
	}
	fail("accounting", checkAccounting(rec))
	fail("cold re-decision", checkSampled(rec, sampleDecisions(rec, sampledDecisions, seed)))
	split := b.w.splitAt(rec.ops)
	var warm []resident
	res, err := residentWalk(rec, func(i int, res []resident) error {
		if i == split {
			warm = append(warm, res...)
		}
		return nil
	})
	if err != nil {
		fail("resident set", err)
		return false
	}
	largest := 0
	for _, c := range closures(res) {
		largest = max(largest, len(c))
	}
	fmt.Fprintf(b.log, "admbench: trace seed %d: %d ops, %d admitted, %d rejected (%.1f%%); %d residents in %d closures after the warm-up, %d in %d at the end, the largest of %d\n",
		seed, len(rec.ops), rec.admitted, rec.rejected, 100*float64(rec.rejected)/float64(rec.admitted+rec.rejected),
		len(warm), len(closures(warm)), len(res), len(closures(res)), largest)
	fail("cold final set", checkFinal(rec, res))
	fail("simulation", checkSim(rec, res, simClosures, seed, 1))
	if b.w.daemon {
		fail("daemon events", checkEvents(rec, res))
	}
	return ok
}

// setupOnly sets up trace 0 once more and tears it down, returning the
// set-up time.
func (b *bench) setupOnly() (time.Duration, error) {
	seed := b.w.traceSeed(b.seed, 0)
	if b.w.daemon {
		d, err := b.daemonSetup(nil, seed)
		if err != nil {
			return 0, err
		}
		d.close()
		return d.setup, nil
	}
	su, err := b.inprocSetup(seed)
	if err != nil {
		return 0, err
	}
	return su.setup, su.ctl.Close()
}

// runTimed is the untraced run: the end-to-end metrics. Throughput and
// CPU are medians over rounds, and so are the latency percentiles of
// each round's submissions; setup_s is the median of every set-up,
// topped up to minSetups with set-ups that replay nothing.
func (b *bench) runTimed(budget time.Duration) (*result, error) {
	rds, err := b.rounds(budget)
	if err != nil {
		return nil, err
	}
	rss := peakRSS()
	res := &result{Metrics: make(map[string]metric)}
	var tput, cpu, p50, p99, setup []float64
	for _, rd := range rds {
		tput = append(tput, rd.rps())
		cpu = append(cpu, rd.cpu().Seconds()*1e6/float64(rd.requests()))
		var lat []float64
		for _, r := range rd {
			setup = append(setup, r.setup.Seconds())
			for _, d := range r.lat {
				lat = append(lat, float64(d)/1e3)
			}
			res.Attempted += r.ops
			res.Failed += r.failed
		}
		p50 = append(p50, quantile(lat, 0.50))
		p99 = append(p99, quantile(lat, 0.99))
	}
	for len(setup) < minSetups {
		d, err := b.setupOnly()
		if err != nil {
			return nil, err
		}
		setup = append(setup, d.Seconds())
	}
	res.Metrics["throughput_rps"] = metric{median(tput), "req/s"}
	res.Metrics["p50_us"] = metric{median(p50), "us"}
	res.Metrics["p99_us"] = metric{median(p99), "us"}
	res.Metrics["cpu_ms_per_kreq"] = metric{median(cpu), "ms"}
	res.Metrics["setup_s"] = metric{median(setup), "s"}
	res.Metrics["peak_rss_mb"] = metric{float64(rss) / (1 << 20), "MB"}
	fmt.Fprintf(b.log, "admbench: %d rounds of %d traces, %d requests and %d submissions timed per round, %d set-ups, %d ops attempted, %d failed\n",
		len(rds), len(rds[0]), rds[0].requests(), rds[0].submissions(), len(setup), res.Attempted, res.Failed)
	cs := time.Now()
	res.Correct = b.check(rds[0])
	fmt.Fprintf(b.log, "admbench: checks took %v\n", time.Since(cs).Round(time.Millisecond))
	return res, nil
}
