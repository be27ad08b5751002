package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"testing"
)

// tiny returns the named workload at a size that replays in well under
// a second.
func tiny(t *testing.T, name string) *bench {
	t.Helper()
	def, ok := workloads[name]
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	w := *def
	w.cfg.Requests, w.warmup = 2000, 300
	w.traces = min(w.traces, 2)
	if w.cfg.Flash > 0 {
		w.cfg.Flash, w.cfg.FlashLen = 4, 40
	}
	return &bench{w: &w, seed: 7, workers: 2, log: io.Discard}
}

// tinyRound replays a tiny workload once and requires its checks to
// pass untampered.
func tinyRound(t *testing.T, name string) (*bench, *record) {
	t.Helper()
	b := tiny(t, name)
	rd, err := b.round(nil)
	if err != nil {
		t.Fatal(err)
	}
	b.log = testLog{t}
	if !b.check(rd) {
		t.Fatal("untampered round fails its checks")
	}
	b.log = io.Discard
	return b, rd[0].rec
}

type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(string(p))
	return len(p), nil
}

// clone copies a record's verdicts and events so a test can tamper
// with them.
func clone(rec *record) *record {
	c := *rec
	c.verdict = append([]int8(nil), rec.verdict...)
	c.lastEvent = make(map[string]int, len(rec.lastEvent))
	for k, v := range rec.lastEvent {
		c.lastEvent[k] = v
	}
	return &c
}

// firstAdd returns the index of the first add op with the verdict v.
func firstAdd(rec *record, v int8) int {
	for i := range rec.ops {
		if rec.ops[i].Op == "add" && rec.verdict[i] == v {
			return i
		}
	}
	return -1
}

func flip(v int8) int8 {
	if v == vAdmit {
		return vReject
	}
	return vAdmit
}

func TestChecksCatchTampering(t *testing.T) {
	for _, name := range []string{"backbone-steady", "fronthaul-churn", "daemon-backbone"} {
		t.Run(name, func(t *testing.T) {
			b, rec := tinyRound(t, name)

			// A flipped verdict, both ways where the trace has both.
			for _, v := range []int8{vAdmit, vReject} {
				i := firstAdd(rec, v)
				if i < 0 {
					if v == vAdmit {
						t.Fatal("no admission to flip")
					}
					continue
				}
				bad := clone(rec)
				bad.verdict[i] = flip(v)
				if checkSampled(bad, []int{i}) == nil {
					t.Errorf("cold re-decision accepts op %d flipped from verdict %d", i, v)
				}
				if checkAccounting(bad) == nil {
					t.Errorf("accounting accepts op %d flipped from verdict %d", i, v)
				}
			}

			// A dropped operation: an op left without a verdict.
			for _, op := range []string{"add", "del"} {
				for i := range rec.ops {
					if rec.ops[i].Op == op && rec.verdict[i] == vAdmit {
						bad := clone(rec)
						bad.verdict[i] = vNone
						if checkAccounting(bad) == nil {
							t.Errorf("accounting accepts dropped %s op %d", op, i)
						}
						break
					}
				}
			}

			// An understated bound.
			res, err := residentWalk(rec, nil)
			if err != nil {
				t.Fatal(err)
			}
			seed := b.w.traceSeed(b.seed, 0)
			if err := checkSim(rec, res, simClosures, seed, 1); err != nil {
				t.Fatal(err)
			}
			if checkSim(rec, res, simClosures, seed, 0.5) == nil {
				t.Error("simulation check accepts bounds halved")
			}

			// A resident set holding a request rejected when it arrived.
			if i := firstAdd(rec, vReject); i >= 0 {
				fs, err := rec.ops[i].Spec(rec.topo)
				if err != nil {
					t.Fatal(err)
				}
				var then []resident
				if _, err := residentWalk(rec, func(j int, res []resident) error {
					if j == i {
						then = append(append(then, res...), resident{op: i, fs: fs})
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if checkFinal(rec, then) == nil {
					t.Errorf("final-set check accepts rejected op %d as resident", i)
				}
			}

			if !b.w.daemon {
				return
			}
			if rec.events == 0 {
				t.Fatal("no subscription event arrived")
			}
			if err := checkEvents(rec, res); err != nil {
				t.Fatal(err)
			}
			for _, name := range rec.subscribed {
				if n, ok := rec.lastEvent[name]; ok && n > 0 {
					bad := clone(rec)
					bad.lastEvent[name] = n + 1
					if checkEvents(bad, res) == nil {
						t.Errorf("event check accepts %s miscounted", name)
					}
					delete(bad.lastEvent, name)
					if checkEvents(bad, res) == nil {
						t.Errorf("event check accepts %s's events dropped", name)
					}
					return
				}
			}
			t.Fatal("no subscribed name is resident at the end")
		})
	}
}

func TestSameVerdicts(t *testing.T) {
	_, rec := tinyRound(t, "backbone-steady")
	if err := sameVerdicts(rec, clone(rec)); err != nil {
		t.Fatal(err)
	}
	bad := clone(rec)
	i := firstAdd(rec, vAdmit)
	bad.verdict[i] = flip(bad.verdict[i])
	if sameVerdicts(rec, bad) == nil {
		t.Error("a round deciding differently passes")
	}
}

// declared reads the metric names BENCHMARK.json declares in a section.
func declared(t *testing.T, section string) []string {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name string }
	if err := json.Unmarshal(doc[section], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

func keys(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sameNames(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("metrics %v, BENCHMARK.json declares %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("metrics %v, BENCHMARK.json declares %v", got, want)
		}
	}
}

// Both modes report exactly the metrics BENCHMARK.json declares.
func TestReportedMetrics(t *testing.T) {
	for _, name := range []string{"fronthaul-churn", "daemon-backbone"} {
		t.Run(name, func(t *testing.T) {
			b := tiny(t, name)
			res, err := b.runTimed(0)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("timed run: correct %v, %d of %d ops failed", res.Correct, res.Failed, res.Attempted)
			}
			sameNames(t, keys(res.Metrics), declared(t, "end_to_end"))
			res, err = b.runTraced(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatal("traced run fails its checks")
			}
			sameNames(t, keys(res.Metrics), declared(t, "per_layer"))
		})
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seconds", "1"},
		{"--workload", "backbone-steady", "--seconds", "0"},
		{"--workload", "backbone-steady", "--trace", "2"},
	} {
		if code := run(args, io.Discard, io.Discard); code == 0 {
			t.Errorf("run(%v) exits 0", args)
		}
	}
}
