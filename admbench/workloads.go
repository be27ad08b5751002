package main

import (
	"sort"
	"strings"

	"gmfnet/internal/workload"
)

// workloadDef is one benchmark workload: a synthesized trace and the
// loop that replays it.
type workloadDef struct {
	name string
	topo workload.TopoSpec
	// cfg parameterises the synthesizer; its Seed comes from traceSeed.
	cfg workload.Config
	// traces is the number of traces a round replays, each synthesized
	// from its own seed derived from the run's.
	traces int
	// warmup is the number of add ops of each trace replayed untimed
	// before its timed part starts.
	warmup int
	// daemon selects the loopback-TCP harness instead of the in-process
	// closed loop.
	daemon bool
}

// The in-process closed loop: requests per SubmitBatch, submissions in
// flight, and a Flush every flushEvery add ops (counted from the start
// of the trace).
const (
	batchSize     = 16
	pipelineDepth = 4
	flushEvery    = 4096
)

// The daemon harness: ops in flight on its one connection, and names
// subscribed before the replay starts.
const (
	daemonWindow = 4
	daemonSubs   = 8
)

// backboneTopo is the ISP backbone of both backbone workloads: 32 PoPs ×
// 32 aggregations × 2 hosts.
var backboneTopo = workload.TopoSpec{Kind: "backbone", Switches: 32, Fanout: 32, Hosts: 2}

var workloads = map[string]*workloadDef{
	"backbone-steady": {
		name:   "backbone-steady",
		topo:   backboneTopo,
		cfg:    workload.Config{Requests: 24000, Local: 1, Heavy: 0.02, Hold: 4000},
		traces: 1, warmup: 8000,
	},
	"fronthaul-churn": {
		name: "fronthaul-churn",
		topo: workload.TopoSpec{Kind: "fronthaul", Switches: 16, Fanout: 16, Hosts: 2},
		cfg: workload.Config{Requests: 6000, Local: 0.99, Hold: 1500,
			Tenants: 8, TenantChurn: 0.001, Flash: 24, FlashLen: 60},
		traces: 6, warmup: 2000,
	},
	"daemon-backbone": {
		name:   "daemon-backbone",
		topo:   backboneTopo,
		cfg:    workload.Config{Requests: 8000, Local: 1, Heavy: 0.02, Hold: 4000},
		traces: 1, warmup: 4000,
		daemon: true,
	},
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// traceSeed returns the synthesizer seed of trace k of a run's rounds:
// runs of different seeds replay disjoint sets of traces.
func (w *workloadDef) traceSeed(seed int64, k int) int64 {
	return seed*int64(w.traces) + int64(k)
}

// synthesize builds the workload's trace for one synthesizer seed.
func (w *workloadDef) synthesize(seed int64) (workload.Header, []workload.Op, error) {
	cfg := w.cfg
	cfg.Seed = seed
	return workload.Synthesize(w.topo, cfg)
}

// splitAt returns the index of the first op after the warm-up prefix:
// the op following the warmup-th add (departures due before the first
// timed add stay in the warm-up).
func (w *workloadDef) splitAt(ops []workload.Op) int {
	adds := 0
	for i := range ops {
		if ops[i].Op != "add" {
			continue
		}
		if adds == w.warmup {
			return i
		}
		adds++
	}
	return len(ops)
}
