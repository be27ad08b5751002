package main

import (
	"fmt"
	"time"

	"gmfnet/internal/admission"
	"gmfnet/internal/core"
	"gmfnet/internal/network"
	"gmfnet/internal/workload"
)

// Verdict codes of record.verdict, one per trace op.
const (
	vNone   int8 = iota // not issued
	vAdmit              // add admitted; del released a resident (ok)
	vReject             // add rejected; del found no resident (miss)
	vFailed             // the call returned an error
)

// record is what one round leaves for the checks: the trace, the
// verdict of every op, and the counters the program reported.
type record struct {
	topo    *network.Topology
	ops     []workload.Op
	verdict []int8

	// Reported by the controller (or the daemon's stats op) at the end.
	admitted, rejected, released, resident int

	// Daemon only: subscribed names, the residents count of each
	// name's last event, and events received.
	subscribed []string
	lastEvent  map[string]int
	events     int64
}

// replay is the outcome of one replay of one trace.
type replay struct {
	setup    time.Duration   // synthesis, topology, controller, up to the warm-up
	synth    time.Duration   // workload.Synthesize alone
	elapsed  time.Duration   // timed replay, wall clock
	cpu      time.Duration   // timed replay, process user+system CPU
	requests int             // add ops in the timed replay
	lat      []time.Duration // one sample per submission in the timed replay
	ops      int64           // ops issued, warm-up included
	failed   int64           // ops whose call returned an error
	shards   int             // NumShards at the end (in process)
	rtm      runtimeDelta    // runtime/metrics over the timed replay
	bytes    int64           // daemon: bytes both ways on the client socket
	rec      *record
}

// inflight is one submission awaiting its fold.
type inflight struct {
	t     *admission.PendingBatch
	start time.Time
	idx   []int // op indices of the batch's requests
	req   int64
	root  int32
}

// pipeline is the closed-loop in-process submitter: one goroutine
// (the caller) submits batches with at most pipelineDepth of them in
// flight; a consumer goroutine waits on them in submission order.
type pipeline struct {
	ctl *admission.ParallelController
	rec *record
	tr  *tracer

	sem  chan struct{} // in-flight slots
	ch   chan inflight // submissions, in order, to the consumer
	done chan struct{}

	pending []*network.FlowSpec
	pidx    []int
	req     int64 // tracer request id of the pending batch
	root    int32 // its root span
	adds    int   // add ops issued since the start of the trace

	failed int64 // submitter side

	// Consumer-owned until done is closed.
	timing     bool
	lat        []time.Duration
	waitFailed int64
}

func newPipeline(ctl *admission.ParallelController, rec *record, tr *tracer) *pipeline {
	return &pipeline{ctl: ctl, rec: rec, tr: tr, root: -1,
		sem: make(chan struct{}, pipelineDepth)}
}

// start launches the consumer for one segment of the trace; timing
// selects whether it records latency samples.
func (p *pipeline) start(timing bool) {
	p.timing = timing
	p.ch = make(chan inflight, pipelineDepth) // never more than pipelineDepth sends outstanding
	p.done = make(chan struct{})
	go p.consume()
}

func (p *pipeline) consume() {
	defer close(p.done)
	for f := range p.ch {
		ws := p.tr.now()
		ds, err := f.t.Wait()
		lat := time.Since(f.start)
		if p.tr != nil {
			end := p.tr.now()
			p.tr.record("admission.wait", f.req, f.root, ws, end)
			p.tr.close(f.root, end)
		}
		if p.timing {
			p.lat = append(p.lat, lat)
		}
		for k, i := range f.idx {
			switch {
			case err != nil || k >= len(ds):
				p.rec.verdict[i] = vFailed
				p.waitFailed++
			case ds[k].Admitted:
				p.rec.verdict[i] = vAdmit
			default:
				p.rec.verdict[i] = vReject
			}
		}
		<-p.sem
	}
}

// finish submits the partial batch, waits for every submission of the
// segment to fold and stops the consumer.
func (p *pipeline) finish() {
	p.submit()
	close(p.ch)
	<-p.done
}

// submit hands the pending batch to the controller, blocking while
// pipelineDepth submissions are in flight.
func (p *pipeline) submit() {
	if len(p.pending) == 0 {
		return
	}
	p.sem <- struct{}{}
	s := time.Now()
	ts := p.tr.now()
	t, err := p.ctl.SubmitBatch(p.pending)
	if p.tr != nil {
		p.tr.record("admission.submit", p.req, p.root, ts, p.tr.now())
	}
	if err != nil {
		for _, i := range p.pidx {
			p.rec.verdict[i] = vFailed
		}
		p.failed += int64(len(p.pidx))
		p.tr.close(p.root, p.tr.now())
		<-p.sem
	} else {
		p.ch <- inflight{t: t, start: s, idx: p.pidx, req: p.req, root: p.root}
	}
	// SubmitBatch holds the slice until Wait returns: fresh ones per batch.
	p.pending = make([]*network.FlowSpec, 0, batchSize)
	p.pidx = make([]int, 0, batchSize)
	p.root = -1
}

// replay issues ops[from:to] in trace order. Errors of individual
// calls are counted as failed ops; an error of Flush ends the replay.
func (p *pipeline) replay(from, to int) error {
	ops, topo := p.rec.ops, p.rec.topo
	for i := from; i < to; i++ {
		op := &ops[i]
		switch op.Op {
		case "add":
			if len(p.pending) == 0 && p.tr != nil {
				p.req = p.tr.newReq()
				p.root = p.tr.open("submission", p.req, p.tr.now())
			}
			ss := p.tr.now()
			fs, err := op.Spec(topo)
			if p.tr != nil {
				p.tr.record("network.spec", p.req, p.root, ss, p.tr.now())
			}
			p.adds++
			if err != nil {
				p.rec.verdict[i] = vFailed
				p.failed++
				continue
			}
			p.pending = append(p.pending, fs)
			p.pidx = append(p.pidx, i)
			if len(p.pending) >= batchSize {
				p.submit()
			}
			if p.adds%flushEvery == 0 {
				fl := p.tr.now()
				err := p.ctl.Flush()
				if p.tr != nil {
					p.tr.record("admission.flush", p.tr.newReq(), -1, fl, p.tr.now())
				}
				if err != nil {
					return fmt.Errorf("flush: %w", err)
				}
			}
		case "del":
			// The departing flow's admission must be in flight before
			// Release, which waits for every submission to fold.
			p.submit()
			rs := p.tr.now()
			ok, err := p.ctl.Release(op.Name)
			if p.tr != nil {
				p.tr.record("admission.release", p.tr.newReq(), -1, rs, p.tr.now())
			}
			switch {
			case err != nil:
				p.rec.verdict[i] = vFailed
				p.failed++
			case ok:
				p.rec.verdict[i] = vAdmit
			default:
				p.rec.verdict[i] = vReject
			}
		default:
			return fmt.Errorf("op %d: unknown op %q", i, op.Op)
		}
	}
	return nil
}

// inprocSetup is the set-up of one in-process replay: the trace, its
// topology and a fresh ParallelController.
type inprocSetup struct {
	topo         *network.Topology
	ops          []workload.Op
	ctl          *admission.ParallelController
	setup, synth time.Duration
}

func (b *bench) inprocSetup(seed int64) (*inprocSetup, error) {
	collect()
	t0 := time.Now()
	h, ops, err := b.w.synthesize(seed)
	synth := time.Since(t0)
	if err != nil {
		return nil, err
	}
	topo, _, err := h.Topo.Build()
	if err != nil {
		return nil, err
	}
	ctl, err := admission.NewParallelController(network.New(topo), core.Config{Workers: b.workers})
	if err != nil {
		return nil, err
	}
	ctl.SetRetention(admission.RetainCounters)
	collect()
	return &inprocSetup{topo: topo, ops: ops, ctl: ctl, setup: time.Since(t0), synth: synth}, nil
}

// inprocReplay replays the trace of the given seed once through a
// fresh ParallelController: set-up, untimed warm-up, timed remainder.
func (b *bench) inprocReplay(tr *tracer, seed int64) (*replay, error) {
	w := b.w
	su, err := b.inprocSetup(seed)
	if err != nil {
		return nil, err
	}
	topo, ops, ctl := su.topo, su.ops, su.ctl
	r := &replay{setup: su.setup, synth: su.synth}

	rec := &record{topo: topo, ops: ops, verdict: make([]int8, len(ops))}
	r.rec = rec
	p := newPipeline(ctl, rec, nil)
	split := w.splitAt(ops)
	p.start(false)
	err = p.replay(0, split)
	p.finish()
	if err == nil {
		err = ctl.Flush()
	}
	if err != nil {
		ctl.Close()
		return nil, err
	}

	collect()
	p.tr = tr
	p.start(true)
	rtm := readRuntime()
	cpu0 := cpuTime()
	start := time.Now()
	err = p.replay(split, len(ops))
	p.finish()
	if err == nil {
		fl := tr.now()
		err = ctl.Flush()
		if tr != nil {
			tr.record("admission.flush", tr.newReq(), -1, fl, tr.now())
		}
	}
	r.elapsed = time.Since(start)
	r.cpu = cpuTime() - cpu0
	r.rtm = readRuntime().sub(rtm)
	if err != nil {
		ctl.Close()
		return nil, err
	}
	r.shards = ctl.NumShards()
	if err := ctl.Close(); err != nil {
		return nil, err
	}
	for i := split; i < len(ops); i++ {
		if ops[i].Op == "add" {
			r.requests++
		}
	}
	r.lat = p.lat
	r.failed = p.failed + p.waitFailed
	for _, v := range rec.verdict {
		if v != vNone {
			r.ops++
		}
	}
	rec.admitted, rec.rejected = ctl.Admitted(), ctl.Rejected()
	rec.released, rec.resident = ctl.Released(), ctl.NumResidents()
	return r, nil
}
