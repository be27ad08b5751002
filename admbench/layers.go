package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"gmfnet/internal/core"
	"gmfnet/internal/ether"
	"gmfnet/internal/gmf"
	"gmfnet/internal/network"
	"gmfnet/internal/units"
)

// sideDaemonRequests caps the trace of the daemon side pass that the
// in-process workloads' traced runs make for the admitd layer.
const sideDaemonRequests = 3000

// sideBench returns the bench of the other harness over the same
// generator, replaying one trace: in process for the daemon workload, a
// short daemon replay for the in-process ones. The traced run uses it
// so that every layer is timed on every workload.
func (b *bench) sideBench() *bench {
	w := *b.w
	w.traces = 1
	w.daemon = !w.daemon
	if w.daemon {
		if w.cfg.Requests > sideDaemonRequests {
			w.cfg.Requests = sideDaemonRequests
		}
		w.warmup = w.cfg.Requests / 3
	}
	return &bench{w: &w, seed: b.seed, workers: b.workers, log: b.log}
}

// sumRuntime adds up the runtime metrics of a round's timed replays.
func sumRuntime(rd round) runtimeDelta {
	var d runtimeDelta
	for _, r := range rd {
		d.allocs += r.rtm.allocs
		d.allocBytes += r.rtm.allocBytes
		d.gcCPU += r.rtm.gcCPU
		if d.sched == nil && r.rtm.sched != nil {
			d.sched = &metrics.Float64Histogram{Buckets: r.rtm.sched.Buckets,
				Counts: append([]uint64(nil), r.rtm.sched.Counts...)}
		} else if r.rtm.sched != nil {
			for i := range d.sched.Counts {
				d.sched.Counts[i] += r.rtm.sched.Counts[i]
			}
		}
	}
	return d
}

// runTraced is the traced run: one untraced round (the base for the
// runtime metrics, the overhead comparison and the checks), one traced
// round of the workload's harness, one traced replay with the other
// harness, and the core and gmf side passes over the first trace.
func (b *bench) runTraced(out string) (*result, error) {
	plain, err := b.round(nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, err := b.round(tr)
	if err != nil {
		return nil, err
	}
	for k := range plain {
		if err := sameVerdicts(plain[k].rec, traced[k].rec); err != nil {
			return nil, err
		}
	}
	str := newTracer()
	sb := b.sideBench()
	side, err := sb.round(str)
	if err != nil {
		return nil, fmt.Errorf("side pass: %w", err)
	}
	inB, inproc, inTr, daemon, dTr := b, traced, tr, side, str
	if b.w.daemon {
		inB, inproc, inTr, daemon, dTr = sb, side, str, traced, tr
	}
	mutexWait, err := inB.contention(inproc[0].rec)
	if err != nil {
		return nil, err
	}

	first := plain[0].rec
	cp, err := corePass(first)
	if err != nil {
		return nil, err
	}
	gp, err := gmfPass(first, b.seed)
	if err != nil {
		return nil, err
	}

	res := &result{Metrics: make(map[string]metric)}
	set := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	in, dm := inTr.stats(), dTr.stats()
	req := float64(plain.requests())
	rtm := sumRuntime(plain)
	var synth []float64
	for _, r := range traced {
		synth = append(synth, r.synth.Seconds())
	}
	var bytes, events int64
	for _, r := range daemon {
		bytes += r.bytes
		events += r.rec.events
	}

	set("workload.synth_s", median(synth), "s")
	set("network.spec_us", us(in["network.spec"].mean()), "us")
	set("admission.submit_us", us(in["admission.submit"].mean()), "us")
	set("admission.wait_us", us(in["admission.wait"].mean()), "us")
	set("admission.release_us", us(in["admission.release"].mean()), "us")
	set("admission.flush_ms", us(in["admission.flush"].mean())/1e3, "ms")
	set("admission.submissions", float64(plain.submissions()), "count")
	set("admission.shards", float64(inproc[0].shards), "count")
	set("core.arrival_us", us(cp.arrival.mean()), "us")
	set("core.sweeps_per_arrival", float64(cp.sweeps)/float64(max(cp.arrival.n, 1)), "count")
	set("core.rollback_us", us(cp.rollback.mean()), "us")
	set("core.departure_us", us(cp.departure.mean()), "us")
	set("gmf.mx_ns", gp.mx, "ns")
	set("gmf.nx_ns", gp.nx, "ns")
	set("gmf.mx_random_ns", gp.mxRandom, "ns")
	set("admitd.rtt_us", us(dm["admitd.op"].mean()), "us")
	set("admitd.bytes_per_req", float64(bytes)/float64(daemon.requests()), "B")
	set("admitd.events", float64(events), "count")
	set("runtime.allocs_per_req", float64(rtm.allocs)/req, "count")
	set("runtime.alloc_kb_per_req", float64(rtm.allocBytes)/1024/req, "KB")
	set("runtime.gc_cpu_ms_per_kreq", rtm.gcCPU*1e6/req, "ms")
	set("runtime.mutex_wait_ms", mutexWait*1e3, "ms")
	set("runtime.sched_wait_p99_us", us(rtm.schedP99()), "us")
	plainRPS, tracedRPS := plain.rps(), traced.rps()
	set("trace.untraced_rps", plainRPS, "req/s")
	set("trace.throughput_rps", tracedRPS, "req/s")
	fmt.Fprintf(b.log, "admbench: traced %.0f req/s vs untraced %.0f req/s: tracing overhead %.1f%%\n",
		tracedRPS, plainRPS, 100*(plainRPS-tracedRPS)/plainRPS)

	for _, rd := range []round{plain, traced, side} {
		for _, r := range rd {
			res.Attempted += r.ops
			res.Failed += r.failed
		}
	}
	for _, f := range []struct {
		t    *tracer
		name string
	}{{tr, "spans-" + b.w.name + ".jsonl"}, {str, "spans-" + b.w.name + "-side.jsonl"}} {
		path := filepath.Join(out, f.name)
		if err := f.t.write(path); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(b.log, "admbench: %d spans written to %s\n", len(f.t.spans), path)
	}

	res.Correct = b.check(plain)
	if cp.disagree > 0 {
		fmt.Fprintf(b.log, "admbench: check core side pass FAILED: %d verdicts differ from the controller's\n", cp.disagree)
		res.Correct = false
	}
	return res, nil
}

// contention replays trace 0 of an in-process bench once more with
// GOMAXPROCS and the worker pool at runtime.NumCPU(), and returns the
// seconds goroutines waited on contended mutexes in its timed part.
// Under the pinned single proc no mutex is ever contended. The replay
// must decide exactly like want, the same trace's record at one proc.
func (b *bench) contention(want *record) (float64, error) {
	n := runtime.NumCPU()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	c := *b
	c.workers = n
	r, err := c.inprocReplay(nil, c.w.traceSeed(c.seed, 0))
	if err != nil {
		return 0, fmt.Errorf("contention pass: %w", err)
	}
	if err := sameVerdicts(want, r.rec); err != nil {
		return 0, fmt.Errorf("contention pass at %d procs: %w", n, err)
	}
	fmt.Fprintf(b.log, "admbench: contention pass at GOMAXPROCS %d, %d workers: %.0f req/s, mutex wait %.2f ms\n",
		n, n, float64(r.requests)/r.elapsed.Seconds(), r.rtm.mutexWait*1e3)
	return r.rtm.mutexWait, nil
}

// corePassStats is what the core side pass measures.
type corePassStats struct {
	arrival, rollback, departure spanStat
	sweeps                       int
	disagree                     int // verdicts that differ from the record's
}

// corePass replays a round's trace through one core.Engine with the
// sequential admission protocol — Snapshot, AddFlow, AnalyzeDeltaView,
// then Discard or Restore; departures RemoveFlow + Refresh — timing
// each engine call.
func corePass(rec *record) (*corePassStats, error) {
	nw := network.New(rec.topo)
	eng, err := core.NewEngine(nw, core.Config{})
	if err != nil {
		return nil, err
	}
	st := &corePassStats{}
	for i := range rec.ops {
		op := &rec.ops[i]
		if rec.verdict[i] == vFailed {
			continue
		}
		switch op.Op {
		case "add":
			fs, err := op.Spec(rec.topo)
			if err != nil {
				return nil, err
			}
			snap := eng.Snapshot()
			t := time.Now()
			idx, err := eng.AddFlow(fs)
			if err != nil {
				return nil, err
			}
			v, err := eng.AnalyzeDeltaView(idx)
			st.arrival.n++
			st.arrival.total += time.Since(t)
			if err != nil {
				return nil, err
			}
			st.sweeps += v.Stats().Iterations
			ok := v.Schedulable()
			v.Close()
			if ok {
				eng.Discard(snap)
			} else {
				t := time.Now()
				err := eng.Restore(snap)
				st.rollback.n++
				st.rollback.total += time.Since(t)
				if err != nil {
					return nil, err
				}
			}
			if ok != (rec.verdict[i] == vAdmit) {
				st.disagree++
			}
		case "del":
			at := -1
			for j, f := range nw.Flows() {
				if f.Flow.Name == op.Name {
					at = j
					break
				}
			}
			if (at >= 0) != (rec.verdict[i] == vAdmit) {
				st.disagree++
			}
			if at < 0 {
				continue
			}
			t := time.Now()
			err := eng.RemoveFlow(at)
			if err == nil {
				err = eng.Refresh()
			}
			st.departure.n++
			st.departure.total += time.Since(t)
			if err != nil {
				return nil, err
			}
		}
	}
	return st, nil
}

// gmfPassStats is the mean time of one staircase query.
type gmfPassStats struct {
	mx, nx, mxRandom float64 // ns per call
	sink             int64   // sum of the answers, so no query is optimised away
}

// Sizes of the gmf side pass.
const (
	gmfDemands = 256 // demands built from the trace's first add ops
	gmfSteps   = 48  // queries per demand per sweep
	gmfCalls   = 1 << 21
)

// gmfPass times Demand.MX and NX on the workload's demands — each add's
// flow at every link rate on its route, built by ether.DemandFor — with
// the interval lengths of a busy-period iteration: non-decreasing from
// the demand's own cost, by seeded steps up to a few TSUMs. MX is timed
// again with each demand's lengths shuffled.
func gmfPass(rec *record, seed int64) (*gmfPassStats, error) {
	r := rand.New(rand.NewSource(seed))
	var ds []*gmf.Demand
	var ts [][]units.Time
	for i := 0; i < len(rec.ops) && len(ds) < gmfDemands; i++ {
		if rec.ops[i].Op != "add" {
			continue
		}
		fs, err := rec.ops[i].Spec(rec.topo)
		if err != nil {
			return nil, err
		}
		for h := 0; h+1 < len(fs.Route) && len(ds) < gmfDemands; h++ {
			l := rec.topo.Link(fs.Route[h], fs.Route[h+1])
			d, err := ether.DemandFor(fs.Flow, l.Rate, fs.RTP)
			if err != nil {
				return nil, err
			}
			seq := make([]units.Time, gmfSteps)
			t := d.CSUM()
			for k := range seq {
				seq[k] = t
				t += units.Time(r.Int63n(int64(d.TSUM())/2 + 1))
			}
			ds = append(ds, d)
			ts = append(ts, seq)
		}
	}
	if len(ds) == 0 {
		return nil, fmt.Errorf("gmf pass: the trace has no add op")
	}
	sweeps := gmfCalls / (len(ds) * gmfSteps)
	calls := float64(sweeps * len(ds) * gmfSteps)
	st := &gmfPassStats{}
	timeIt := func(q func(d *gmf.Demand, t units.Time) int64, ts [][]units.Time) float64 {
		var sink int64
		start := time.Now()
		for s := 0; s < sweeps; s++ {
			for i, d := range ds {
				for _, t := range ts[i] {
					sink += q(d, t)
				}
			}
		}
		el := time.Since(start)
		st.sink += sink
		return float64(el.Nanoseconds()) / calls
	}
	mx := func(d *gmf.Demand, t units.Time) int64 { return int64(d.MX(t)) }
	nx := func(d *gmf.Demand, t units.Time) int64 { return d.NX(t) }
	st.mx, st.nx = timeIt(mx, ts), timeIt(nx, ts)
	shuffled := make([][]units.Time, len(ts))
	for i := range ts {
		shuffled[i] = append([]units.Time(nil), ts[i]...)
		r.Shuffle(len(shuffled[i]), func(a, b int) { shuffled[i][a], shuffled[i][b] = shuffled[i][b], shuffled[i][a] })
	}
	st.mxRandom = timeIt(mx, shuffled)
	return st, nil
}
