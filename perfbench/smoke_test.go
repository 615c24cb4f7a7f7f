package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"
)

// Tiny versions of the four workloads: same code paths, a few hundred
// nodes, well under a second each.
var tinyWorkloads = map[string]workload{
	"admission": func(seed int64, _ int, tr *tracer) (*outcome, error) {
		return admission(seed, admissionSize{
			StubNodes: 4, Streams: 8, Templates: 12, ZipfSkew: 0.8, Live: 40, Radius: 0.15,
			DriftEvery: 50, DriftFrac: 0.01, SweepEvery: 100, Warm: 80, Arrivals: opBlock, Instances: 2,
		}, tr)
	},
	"batch-16k": func(seed int64, _ int, tr *tracer) (*outcome, error) {
		return batch(seed, batchSize{
			scaleSize: tinyScale, CallQueries: 20, Pool: 400, ColdQueries: 200,
			Calls: opBlock, UsageCalls: 10, Instances: 2,
		}, tr)
	},
	"dataplane-16k": func(seed int64, _ int, tr *tracer) (*outcome, error) {
		return dataplane(seed, dataplaneSize{
			scaleSize: tinyScale, Circuits: 20, Heartbeat: 500 * time.Millisecond,
			WarmSim: time.Second, Step: 10 * time.Millisecond, Steps: opBlock, Instances: 2, TupleSizeKB: 4,
		}, tr)
	},
	"crash-repair": func(seed int64, _ int, tr *tracer) (*outcome, error) {
		return crashRepair(seed, crashSize{
			StubNodes: 4, Streams: 8, Templates: 8, ZipfSkew: 0.8, Circuits: 40,
			DropProb: 0.01, JitterMs: 2, CrashFrac: 0.05,
			Heartbeat: 200 * time.Millisecond, Step: 50 * time.Millisecond, Round: 10, DriftFrac: 0.01,
			WarmSim: 2 * time.Second, Steps: opBlock, Instances: 2, TupleSizeKB: 4,
		}, tr)
	},
}

// tinyScale is a 160-node transit-stub overlay for the scale workloads.
var tinyScale = scaleSize{
	TransitDomains: 2, TransitNodes: 2, StubsPerTransit: 4, StubNodes: 8,
	Streams: 12, Templates: 12, ZipfSkew: 0.8,
	TickerSamples: 4, TickerEvery: 200 * time.Millisecond, TickerWarm: 10,
}

type benchSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMatchesCode ties BENCHMARK.json to the code: the same
// workloads, and the end-to-end and per-layer lists in the same order
// with the same units.
func TestSpecMatchesCode(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil || tinyWorkloads[w.Name] == nil {
			t.Errorf("workload %s is not implemented or has no tiny version", w.Name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the code %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %s (%s), code %s (%s)", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the code %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s (%s), code %s (%s)", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// TestWorkloadsSmoke runs each workload at tiny scale, untraced and
// traced: every named metric must appear with its unit, every check must
// pass, and a same-seed rerun must reproduce every deterministic result.
func TestWorkloadsSmoke(t *testing.T) {
	spec := loadSpec(t)
	for name, w := range tinyWorkloads {
		t.Run(name, func(t *testing.T) {
			res, err := run(io.Discard, w, name, 3, 1, false, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Fatalf("result %+v", res)
			}
			if len(res.Metrics) != len(spec.EndToEnd) {
				t.Errorf("untraced run reported %d metrics, want the %d end-to-end ones", len(res.Metrics), len(spec.EndToEnd))
			}
			for _, m := range spec.EndToEnd {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit || got.Value <= 0 {
					t.Errorf("end-to-end %s: got %+v, want a positive value in %q", m.Name, got, m.Unit)
				}
			}

			res, err = run(io.Discard, w, name, 3, 1, true, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Metrics) != len(spec.PerLayer) {
				t.Errorf("traced run reported %d metrics, want the %d per-layer ones", len(res.Metrics), len(spec.PerLayer))
			}
			for _, m := range spec.PerLayer {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer %s: got %+v, want unit %q", m.Name, got, m.Unit)
				}
			}

			a, err := w(5, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			b, err := w(5, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(a.det) == 0 {
				t.Fatal("no deterministic results recorded")
			}
			for k, v := range a.det {
				if b.det[k] != v {
					t.Errorf("deterministic %s: %v then %v on the same seed", k, v, b.det[k])
				}
			}
		})
	}
}

// TestSelfTimesAddUp checks the self-time split on a hand-built trace.
func TestSelfTimesAddUp(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "bench.root", Parent: -1, Start: 0, End: 100},
		{Name: "optimizer.Optimize", Parent: 0, Start: 10, End: 40},
		{Name: "adapt.Sweep", Parent: 0, Start: 50, End: 90},
		{Name: "optimizer.Deploy", Parent: 2, Start: 60, End: 70},
	}}
	self, err := tr.selfTimes(0)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{"bench": 30, "optimizer": 40, "adapt": 30}
	for m, d := range want {
		if self[m] != d {
			t.Errorf("self[%s] = %v, want %v", m, self[m], d)
		}
	}
	tr.spans = append(tr.spans, span{Name: "dht.Lookup", Parent: 0, Start: 35, End: 45})
	if _, err := tr.selfTimes(0); err == nil {
		t.Error("overlapping siblings accepted")
	}
}
