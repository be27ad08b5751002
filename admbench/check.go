package main

import (
	"fmt"
	"math/rand"
	"sort"

	"gmfnet/internal/core"
	"gmfnet/internal/network"
	"gmfnet/internal/sim"
	"gmfnet/internal/units"
)

// The checks below judge a round's record apart from the incremental
// engine: they rebuild the resident set from the verdicts alone, decide
// sampled requests again with a cold core.Analyzer, analyse the final
// resident set cold, simulate sampled closures with internal/sim, and
// recount the daemon's closure populations from routes.

// resident is one admitted flow in admission order.
type resident struct {
	op int // trace op index of its add
	fs *network.FlowSpec
}

// residentWalk replays the verdict log in trace order, keeping the
// resident set; visit (if non-nil) is called before each op is applied.
// It fails on an op without a verdict and on a departure verdict that
// contradicts the resident set.
func residentWalk(rec *record, visit func(i int, res []resident) error) ([]resident, error) {
	var res []resident
	for i := range rec.ops {
		op := &rec.ops[i]
		if visit != nil {
			if err := visit(i, res); err != nil {
				return nil, err
			}
		}
		v := rec.verdict[i]
		if v == vNone {
			return nil, fmt.Errorf("op %d (%s %s) has no verdict: dropped", i, op.Op, op.Name)
		}
		if v == vFailed {
			continue
		}
		switch op.Op {
		case "add":
			if v == vAdmit {
				fs, err := op.Spec(rec.topo)
				if err != nil {
					return nil, err
				}
				res = append(res, resident{op: i, fs: fs})
			}
		case "del":
			at := -1
			for k := range res {
				if res[k].fs.Flow.Name == op.Name {
					at = k
					break
				}
			}
			switch {
			case v == vAdmit && at < 0:
				return nil, fmt.Errorf("op %d: del %s released a flow that is not resident", i, op.Name)
			case v == vReject && at >= 0:
				return nil, fmt.Errorf("op %d: del %s missed a resident flow", i, op.Name)
			case at >= 0:
				res = append(res[:at], res[at+1:]...)
			}
		}
	}
	return res, nil
}

// checkAccounting checks that every op has a verdict, that attempted
// requests = admitted + rejected and residents = admitted − released,
// and that the program's counters agree with the verdicts.
func checkAccounting(rec *record) error {
	res, err := residentWalk(rec, nil)
	if err != nil {
		return err
	}
	var adds, admits, rejects, failed, released int
	for i := range rec.ops {
		v := rec.verdict[i]
		if rec.ops[i].Op == "add" {
			adds++
			switch v {
			case vAdmit:
				admits++
			case vReject:
				rejects++
			case vFailed:
				failed++
			}
		} else if v == vAdmit {
			released++
		}
	}
	switch {
	case admits+rejects+failed != adds:
		return fmt.Errorf("accounting: %d requests attempted, %d admitted + %d rejected + %d failed", adds, admits, rejects, failed)
	case rec.admitted != admits || rec.rejected != rejects:
		return fmt.Errorf("accounting: program counted %d admitted / %d rejected, verdicts say %d / %d",
			rec.admitted, rec.rejected, admits, rejects)
	case rec.released != released:
		return fmt.Errorf("accounting: program counted %d released, verdicts say %d", rec.released, released)
	case rec.resident != rec.admitted-rec.released || rec.resident != len(res):
		return fmt.Errorf("accounting: program holds %d residents, admitted %d − released %d, verdicts leave %d",
			rec.resident, rec.admitted, rec.released, len(res))
	}
	return nil
}

// routeLinks returns the directed links of a route.
func routeLinks(fs *network.FlowSpec) [][2]network.NodeID {
	out := make([][2]network.NodeID, 0, len(fs.Route)-1)
	for h := 0; h+1 < len(fs.Route); h++ {
		out = append(out, [2]network.NodeID{fs.Route[h], fs.Route[h+1]})
	}
	return out
}

// closureOf returns the members of res that share a directed link with
// fs, directly or through other members — the only flows whose bounds
// fs can change — in admission order.
func closureOf(res []resident, fs *network.FlowSpec) []resident {
	byLink := make(map[[2]network.NodeID][]int)
	for k := range res {
		for _, l := range routeLinks(res[k].fs) {
			byLink[l] = append(byLink[l], k)
		}
	}
	in := make([]bool, len(res))
	seen := make(map[[2]network.NodeID]bool)
	front := routeLinks(fs)
	for len(front) > 0 {
		l := front[len(front)-1]
		front = front[:len(front)-1]
		if seen[l] {
			continue
		}
		seen[l] = true
		for _, k := range byLink[l] {
			if !in[k] {
				in[k] = true
				front = append(front, routeLinks(res[k].fs)...)
			}
		}
	}
	var out []resident
	for k := range res {
		if in[k] {
			out = append(out, res[k])
		}
	}
	return out
}

// closures partitions res into interference closures (union-find over
// the directed links of the routes), each in admission order.
func closures(res []resident) [][]resident {
	parent := make([]int, len(res))
	for k := range parent {
		parent[k] = k
	}
	find := func(k int) int {
		for parent[k] != k {
			parent[k] = parent[parent[k]]
			k = parent[k]
		}
		return k
	}
	owner := make(map[[2]network.NodeID]int)
	for k := range res {
		for _, l := range routeLinks(res[k].fs) {
			if o, ok := owner[l]; ok {
				parent[find(k)] = find(o)
			} else {
				owner[l] = k
			}
		}
	}
	at := make(map[int]int)
	var out [][]resident
	for k := range res {
		root := find(k)
		c, ok := at[root]
		if !ok {
			c = len(out)
			at[root] = c
			out = append(out, nil)
		}
		out[c] = append(out[c], res[k])
	}
	return out
}

// coldAnalyze analyses the flows from scratch with a one-shot
// core.Analyzer on a network of its own.
func coldAnalyze(topo *network.Topology, flows []*network.FlowSpec) (*network.Network, *core.Result, error) {
	nw := network.New(topo)
	for _, fs := range flows {
		if _, err := nw.AddFlow(fs); err != nil {
			return nil, nil, err
		}
	}
	an, err := core.NewAnalyzer(nw, core.Config{})
	if err != nil {
		return nil, nil, err
	}
	res, err := an.Analyze()
	return nw, res, err
}

func specs(res []resident) []*network.FlowSpec {
	out := make([]*network.FlowSpec, len(res))
	for k := range res {
		out[k] = res[k].fs
	}
	return out
}

// sampleDecisions picks up to n decided add ops, half admissions and
// half rejections where the trace has enough of each, seeded.
func sampleDecisions(rec *record, n int, seed int64) []int {
	var adm, rej []int
	for i := range rec.ops {
		if rec.ops[i].Op != "add" {
			continue
		}
		switch rec.verdict[i] {
		case vAdmit:
			adm = append(adm, i)
		case vReject:
			rej = append(rej, i)
		}
	}
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(adm), func(i, j int) { adm[i], adm[j] = adm[j], adm[i] })
	r.Shuffle(len(rej), func(i, j int) { rej[i], rej[j] = rej[j], rej[i] })
	nr := n / 2
	if nr > len(rej) {
		nr = len(rej)
	}
	na := n - nr
	if na > len(adm) {
		na = len(adm)
	}
	out := append(append([]int(nil), rej[:nr]...), adm[:na]...)
	sort.Ints(out)
	return out
}

// checkSampled decides each sampled request again: a cold analysis of
// the request's interference closure among the residents at that point
// in trace order, plus the request, must agree with the verdict.
func checkSampled(rec *record, samples []int) error {
	want := make(map[int]bool, len(samples))
	for _, i := range samples {
		want[i] = true
	}
	_, err := residentWalk(rec, func(i int, res []resident) error {
		if !want[i] {
			return nil
		}
		fs, err := rec.ops[i].Spec(rec.topo)
		if err != nil {
			return err
		}
		flows := append(specs(closureOf(res, fs)), fs)
		_, cold, err := coldAnalyze(rec.topo, flows)
		if err != nil {
			return fmt.Errorf("cold re-decision of op %d: %w", i, err)
		}
		if got := rec.verdict[i] == vAdmit; got != cold.Schedulable() {
			return fmt.Errorf("op %d (add %s): verdict admitted=%v, cold analysis of its %d-flow closure says schedulable=%v",
				i, rec.ops[i].Name, got, len(flows), cold.Schedulable())
		}
		return nil
	})
	return err
}

// checkFinal analyses the final resident set cold: it must be
// schedulable.
func checkFinal(rec *record, res []resident) error {
	_, cold, err := coldAnalyze(rec.topo, specs(res))
	if err != nil {
		return fmt.Errorf("cold analysis of the final resident set: %w", err)
	}
	if !cold.Schedulable() {
		for i := range cold.Flows {
			if !cold.Flows[i].Schedulable() {
				return fmt.Errorf("final resident set not schedulable: flow %s (converged=%v)", cold.Flows[i].Name, cold.Converged)
			}
		}
		return fmt.Errorf("final resident set not schedulable (converged=%v)", cold.Converged)
	}
	return nil
}

// simDuration is the simulated time per sampled closure: a few periods
// of the slowest synthesized flow (33 ms).
const simDuration = 150 * units.Millisecond

// checkSim simulates up to n sampled closures of the final resident set
// adversarially (synchronized release, fragments at the back of their
// jitter window) and checks that no frame's observed response exceeds
// scale × its cold-analysed bound. scale is 1 in the benchmark; tests
// shrink it to show the check fails on an understated bound.
func checkSim(rec *record, res []resident, n int, seed int64, scale float64) error {
	var multi [][]resident
	for _, c := range closures(res) {
		if len(c) >= 2 && len(c) <= 64 {
			multi = append(multi, c)
		}
	}
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(multi), func(i, j int) { multi[i], multi[j] = multi[j], multi[i] })
	if n > len(multi) {
		n = len(multi)
	}
	if n == 0 && len(res) > 0 {
		multi, n = [][]resident{res[:1]}, 1
	}
	for _, c := range multi[:n] {
		_, bounds, err := coldAnalyze(rec.topo, specs(c))
		if err != nil {
			return err
		}
		sub, err := subTopology(rec.topo, specs(c))
		if err != nil {
			return err
		}
		nw, subBounds, err := coldAnalyze(sub, specs(c))
		if err != nil {
			return err
		}
		if err := sameBounds(bounds, subBounds); err != nil {
			return err
		}
		s, err := sim.New(nw, sim.Config{Duration: simDuration, Seed: seed,
			Jitter: sim.JitterBack, Phase: sim.PhaseSynchronized})
		if err != nil {
			return err
		}
		obs, err := s.Run()
		if err != nil {
			return err
		}
		for i := range obs.Flows {
			fr, err := bounds.FlowByIndex(i)
			if err != nil || fr.Err != nil {
				return fmt.Errorf("simulated flow %s has no analysed bound", obs.Flows[i].Name)
			}
			for k, st := range obs.Flows[i].PerFrame {
				if st.Completed == 0 {
					return fmt.Errorf("simulation delivered no frame %d of flow %s", k, obs.Flows[i].Name)
				}
				bound := units.Time(float64(fr.Frames[k].Response) * scale)
				if st.MaxResponse > bound {
					return fmt.Errorf("simulation: flow %s frame %d responded in %v, above its bound %v",
						obs.Flows[i].Name, k, st.MaxResponse, bound)
				}
			}
		}
	}
	return nil
}

// subTopology returns the part of topo the flows can observe: every node
// on their routes, every neighbour of those nodes and every link at a
// route node. Route switches keep their interface counts, hence their
// CIRC, so the analysis is unchanged while the simulator no longer
// polls the thousands of switches no flow crosses.
func subTopology(topo *network.Topology, flows []*network.FlowSpec) (*network.Topology, error) {
	sub := network.NewTopology()
	addNode := func(id network.NodeID) error {
		if sub.Node(id) != nil {
			return nil
		}
		n := topo.Node(id)
		switch n.Kind {
		case network.Switch:
			return sub.AddSwitch(id, n.Switch)
		case network.Router:
			return sub.AddRouter(id)
		default:
			return sub.AddHost(id)
		}
	}
	onRoute := make(map[network.NodeID]bool)
	for _, fs := range flows {
		for _, id := range fs.Route {
			onRoute[id] = true
		}
	}
	ids := make([]network.NodeID, 0, len(onRoute))
	for id := range onRoute {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if err := addNode(id); err != nil {
			return nil, err
		}
		for _, nb := range topo.Neighbors(id) {
			if err := addNode(nb); err != nil {
				return nil, err
			}
		}
	}
	for _, id := range ids {
		for _, nb := range topo.Neighbors(id) {
			for _, l := range []*network.Link{topo.Link(id, nb), topo.Link(nb, id)} {
				if l == nil || sub.Link(l.From, l.To) != nil {
					continue
				}
				if err := sub.AddLink(l.From, l.To, l.Rate, l.Prop); err != nil {
					return nil, err
				}
			}
		}
	}
	return sub, nil
}

// sameBounds checks that two analyses of the same flows agree on every
// frame's bound.
func sameBounds(a, b *core.Result) error {
	if len(a.Flows) != len(b.Flows) {
		return fmt.Errorf("sub-topology analysis covers %d flows, want %d", len(b.Flows), len(a.Flows))
	}
	for i := range a.Flows {
		fa, fb := a.Flows[i], b.Flows[i]
		if len(fa.Frames) != len(fb.Frames) {
			return fmt.Errorf("sub-topology analysis of %s has %d frames, want %d", fa.Name, len(fb.Frames), len(fa.Frames))
		}
		for k := range fa.Frames {
			if fa.Frames[k].Response != fb.Frames[k].Response {
				return fmt.Errorf("sub-topology bound of %s frame %d is %v, full topology %v",
					fa.Name, k, fb.Frames[k].Response, fa.Frames[k].Response)
			}
		}
	}
	return nil
}

// checkEvents checks each subscribed name's last event against the
// closure population recomputed from the final residents' routes: the
// closure size of the first resident with that name, or 0 (no event
// at all) when none is resident.
func checkEvents(rec *record, res []resident) error {
	for _, name := range rec.subscribed {
		want := 0
		for k := range res {
			if res[k].fs.Flow.Name == name {
				want = len(closureOf(res, res[k].fs))
				break
			}
		}
		got, ok := rec.lastEvent[name]
		if !ok && want > 0 {
			return fmt.Errorf("events: %s is resident in a %d-flow closure but no event arrived", name, want)
		}
		if got != want {
			return fmt.Errorf("events: last event for %s reports %d residents, routes say %d", name, got, want)
		}
	}
	return nil
}
