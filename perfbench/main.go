// Command perfbench is the repository benchmark: four seeded workloads
// that drive the SBON layers from outside and report end-to-end metrics
// (untraced) or per-layer metrics (one untraced and one traced pass).
//
//	go build -o perfbench . && ./perfbench --workload admission --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. A failed correctness
// check prints correct=false with no metrics and exits non-zero.
// LAYERS.md maps every per-layer metric to the end-to-end metric it
// should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"github.com/hourglass/sbon/internal/optimizer"
	"github.com/hourglass/sbon/internal/query"
	"github.com/hourglass/sbon/internal/topology"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one pass of a workload produced.
type outcome struct {
	attempted, failed int
	// e2e holds the end-to-end metrics but peak_rss_mb (wall-clock
	// ones are meaningful only untraced).
	e2e map[string]metric
	// layer holds per-layer counts and set-up splits; span-derived
	// timings are added from the tracer by the workload.
	layer map[string]float64
	// det holds the deterministic results a same-seed rerun must
	// reproduce exactly.
	det map[string]float64
	// timedRoots are the spans covering the timed phases (traced
	// passes); timedWall and mem sum over those phases.
	timedRoots []int
	timedWall  time.Duration
	mem        memDelta
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]metric{}, layer: map[string]float64{}, det: map[string]float64{}}
}

// addTimed records one timed phase.
func (o *outcome) addTimed(root int, wall time.Duration, m memDelta) {
	o.timedRoots = append(o.timedRoots, root)
	o.timedWall += wall
	o.mem.allocMB += m.allocMB
	o.mem.gcCycles += m.gcCycles
	o.mem.pauseMs += m.pauseMs
}

// workload is one benchmark scenario at a given seed and length.
type workload func(seed int64, seconds int, tr *tracer) (*outcome, error)

var workloads = map[string]workload{
	"admission":     runAdmission,
	"batch-16k":     runBatch,
	"dataplane-16k": runDataplane,
	"crash-repair":  runCrashRepair,
}

// endToEnd lists the end-to-end metrics, in BENCHMARK.json order. Every
// workload reports all of them: each times a sequence of operations of
// its own kind (an arrival, a batch call, a virtual-time step), and
// ops_per_s, op_p50_us and op_p99_us describe that sequence.
// peak_rss_mb is added by run.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"op_p99_us", "us"},
	{"ok_frac", "ratio"},
	{"usage_ratio", "ratio"},
	{"peak_rss_mb", "MB"},
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "admission, batch-16k, dataplane-16k or crash-repair")
	seed := flag.Int64("seed", 1, "input generation seed")
	seconds := flag.Int("seconds", 10, "target length of the timed phase on the reference host")
	traced := flag.Int("trace", 0, "1: report per-layer metrics from an extra traced pass")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {admission|batch-16k|dataplane-16k|crash-repair} --seed N --seconds S --trace {0|1}\n")
		os.Exit(2)
	}
	res, err := run(os.Stdout, w, *name, *seed, *seconds, *traced == 1, filepath.Join(".bench_build", "spans"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", *name, *seed, err)
		res = result{Correct: false, Attempted: max(res.Attempted, 1), Failed: max(res.Attempted, 1), Metrics: map[string]metric{}}
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if err != nil {
		os.Exit(1)
	}
}

// run executes one workload. Untraced, it reports the end-to-end
// metrics. Traced, it runs the workload twice — untraced, then traced —
// and reports the per-layer metrics, the self-time table and the
// tracing overhead; the traced pass's end-to-end numbers are discarded.
func run(w io.Writer, wl workload, name string, seed int64, seconds int, traced bool, spanDir string) (result, error) {
	base, err := wl(seed, seconds, nil)
	if err != nil {
		return result{}, err
	}
	res := result{Correct: true, Attempted: base.attempted, Failed: base.failed, Metrics: map[string]metric{}}
	if !traced {
		for k, v := range base.e2e {
			res.Metrics[k] = v
		}
		res.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
		if len(res.Metrics) != len(endToEnd) {
			return res, fmt.Errorf("reported %d end-to-end metrics, BENCHMARK.json defines %d", len(res.Metrics), len(endToEnd))
		}
		for _, m := range endToEnd {
			v, ok := res.Metrics[m.name]
			if !ok || v.Unit != m.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value <= 0 {
				return res, fmt.Errorf("end-to-end metric %s missing, not in %s, or not a positive number: %+v", m.name, m.unit, v)
			}
		}
		return res, nil
	}
	tr := newTracer()
	out, err := wl(seed, seconds, tr)
	if err != nil {
		return res, err
	}
	for k, v := range base.det {
		if out.det[k] != v {
			return res, fmt.Errorf("deterministic result %s: %v untraced, %v traced", k, v, out.det[k])
		}
	}
	self := map[string]time.Duration{}
	var wall time.Duration
	for _, root := range out.timedRoots {
		s, err := tr.selfTimes(root)
		if err != nil {
			return res, err
		}
		for m, d := range s {
			self[m] += d
		}
		wall += tr.spans[root].End - tr.spans[root].Start
	}
	if err := writeSelfTable(w, name, self, wall); err != nil {
		return res, err
	}
	path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", name, seed))
	if err := tr.writeJSONL(path); err != nil {
		return res, fmt.Errorf("writing spans: %w", err)
	}
	overhead := out.timedWall.Seconds()/base.timedWall.Seconds() - 1
	fmt.Fprintf(w, "spans: %d written to %s; tracing overhead %.2f%% of the untraced timed phase\n", len(tr.spans), path, 100*overhead)

	out.layer["trace.overhead_frac"] = overhead
	// Runtime counters come from the untraced pass: span bookkeeping
	// allocates.
	out.layer["runtime.alloc_mb"] = base.mem.allocMB
	out.layer["runtime.gc_cycles"] = base.mem.gcCycles
	out.layer["runtime.gc_pause_ms"] = base.mem.pauseMs
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{out.layer[m.name], m.unit}
	}
	return res, nil
}

// perLayer lists every per-layer metric, in BENCHMARK.json order. A
// traced run reports all of them; a workload that does not exercise a
// layer reports its metrics as 0.
var perLayer = []struct{ name, unit string }{
	{"topology.build_s", "s"},
	{"vivaldi.embed_s", "s"},
	{"vivaldi.rel_err_p50", "ratio"},
	{"optimizer.env_s", "s"},
	{"optimizer.optimize_p50_us", "us"},
	{"optimizer.optimize_p99_us", "us"},
	{"optimizer.deploy_p50_us", "us"},
	{"optimizer.cancel_s", "s"},
	{"optimizer.drift_s", "s"},
	{"optimizer.plans_per_query", "count"},
	{"optimizer.circuits_per_query", "count"},
	{"optimizer.instances_examined_per_query", "count"},
	{"optimizer.reuse_frac", "ratio"},
	{"placement.map_err_mean", "cost"},
	{"dht.hops_per_query", "count"},
	{"dht.peers_walked_per_query", "count"},
	{"dht.candidates_per_query", "count"},
	{"optimizer.batch_s", "s"},
	{"optimizer.batch_cold_s", "s"},
	{"optimizer.batch_cache_hit_frac", "ratio"},
	{"adapt.sweep_p50_ms", "ms"},
	{"adapt.sweep_s", "s"},
	{"adapt.services_evaluated", "count"},
	{"adapt.migrated", "count"},
	{"adapt.repair_round_p50_ms", "ms"},
	{"adapt.repaired", "count"},
	{"adapt.aborted", "count"},
	{"adapt.state_lost_kb", "KB"},
	{"adapt.repair_p50_ms", "sim-ms"},
	{"adapt.repair_p80_ms", "sim-ms"},
	{"failure.detect_p50_ms", "sim-ms"},
	{"failure.deaths", "count"},
	{"failure.false_deaths", "count"},
	{"simtime.advance_s", "s"},
	{"simtime.pending_peak", "count"},
	{"overlay.msgs_sent", "count"},
	{"overlay.kb_sent", "KB"},
	{"overlay.hb_recv", "count"},
	{"overlay.msgs_per_s", "1/s"},
	{"overlay.lost", "count"},
	{"stream.deploy_s", "s"},
	{"stream.tuples_produced", "count"},
	{"stream.tuples_delivered", "count"},
	{"stream.tuples_per_s", "1/s"},
	{"stream.migrations", "count"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
}

// memDelta is the Go runtime's allocation and GC activity over a timed
// phase.
type memDelta struct {
	allocMB, gcCycles, pauseMs float64
}

// opBlock is the number of operations per throughput and p99 block; a
// block of 1000 leaves ten samples beyond its p99.
const opBlock = 1000

// opLog records the wall time of each timed operation of a workload,
// in blocks of opBlock operations. Throughput and p99 are taken per
// block and reported as the median block: on a shared host the speed of
// a run drifts (CPU steal, GC phases), and a slow stretch would
// otherwise decide the whole run's tail.
type opLog struct {
	latUs              []float64
	blockQPS, blockP99 []float64
	blockStart         time.Time
	blockFirst         int
}

// start opens a block; call it when a timed phase begins, so the time
// between phases counts in no block.
func (l *opLog) start() {
	l.blockStart, l.blockFirst = time.Now(), len(l.latUs)
}

// add records one operation's wall time, closing the block when it is
// full. A block's rate counts the wall time between its operations too
// (the admission loop's departures, drift and sweeps).
func (l *opLog) add(d time.Duration) {
	l.latUs = append(l.latUs, float64(d.Nanoseconds())/1e3)
	if len(l.latUs)-l.blockFirst == opBlock {
		l.blockQPS = append(l.blockQPS, opBlock/time.Since(l.blockStart).Seconds())
		l.blockP99 = append(l.blockP99, quantile(append([]float64(nil), l.latUs[l.blockFirst:]...), 0.99))
		l.start()
	}
}

// report sets ops_per_s, op_p50_us and op_p99_us. Workloads size their
// timed phases in whole blocks; a partial block is an error.
func (l *opLog) report(out *outcome) error {
	if len(l.blockQPS) == 0 || len(l.latUs) != len(l.blockQPS)*opBlock {
		return fmt.Errorf("%d operations timed, not a whole number of blocks of %d", len(l.latUs), opBlock)
	}
	out.e2e["ops_per_s"] = metric{median(l.blockQPS), "1/s"}
	out.e2e["op_p50_us"] = metric{quantile(append([]float64(nil), l.latUs...), 0.5), "us"}
	out.e2e["op_p99_us"] = metric{median(l.blockP99), "us"}
	return nil
}

// blocksFor is the number of whole blocks of operations that take about
// share·seconds on the reference host at opsPerSecond, at least one.
func blocksFor(seconds int, share, opsPerSecond float64) int {
	return max(int(share*float64(seconds)*opsPerSecond/opBlock+0.5), 1)
}

// timedPhase brackets a timed phase: it collects garbage first, so the
// phase does not pay for set-up's heap, and records runtime counters
// across it.
type timedPhase struct {
	start time.Time
	ms    runtime.MemStats
}

func startTimed() *timedPhase {
	runtime.GC()
	p := &timedPhase{}
	runtime.ReadMemStats(&p.ms)
	p.start = time.Now()
	return p
}

// stop returns the phase's wall time and runtime activity.
func (p *timedPhase) stop() (time.Duration, memDelta) {
	wall := time.Since(p.start)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return wall, memDelta{
		allocMB:  float64(ms.TotalAlloc-p.ms.TotalAlloc) / (1 << 20),
		gcCycles: float64(ms.NumGC - p.ms.NumGC),
		pauseMs:  float64(ms.PauseTotalNs-p.ms.PauseTotalNs) / 1e6,
	}
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// quantile is the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// scaled returns xs multiplied by k, for unit conversion.
func scaled(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

// setupMedian reports the median of repeated set-up wall times.
func setupMedian(times []time.Duration) float64 {
	xs := make([]float64, len(times))
	for i, t := range times {
		xs[i] = t.Seconds()
	}
	return median(xs)
}

// usage is the network usage (Σ rate·latency on the true topology) of
// a set of circuits, beside the usage of shipping every stream each
// circuit queries straight from its producer to the consumer.
type usage struct{ placed, direct float64 }

// ratio is placed over direct usage: below 1 when in-network placement
// and reuse save traffic. Dividing out the direct usage removes each
// overlay's latency scale, which otherwise dominates the spread between
// seeds.
func (u usage) ratio() float64 { return u.placed / u.direct }

// circuitsUsage sums the circuits' usage in the given order.
func circuitsUsage(cs []*optimizer.Circuit, spec catalogSpec, topo *topology.Topology) usage {
	truth := optimizer.TrueLatency{Topo: topo}
	var u usage
	for _, c := range cs {
		u.placed += c.NetworkUsage(truth)
		u.direct += spec.directUsage(c.Query, topo)
	}
	return u
}

// deployedUsage is the usage of every deployed circuit, summed in
// query-id order so the result is bit-identical for a seed
// (Deployment.TotalUsage sums in map order, which moves the last bits
// from run to run).
func deployedUsage(dep *optimizer.Deployment, spec catalogSpec, topo *topology.Topology) usage {
	circuits := dep.Circuits()
	ids := make([]int, 0, len(circuits))
	for id := range circuits {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	cs := make([]*optimizer.Circuit, len(ids))
	for i, id := range ids {
		cs[i] = circuits[query.QueryID(id)]
	}
	return circuitsUsage(cs, spec, topo)
}

// placementHash fingerprints the deployment's circuit table: every
// (query, service, host) triple in query order.
func placementHash(dep *optimizer.Deployment) float64 {
	circuits := dep.Circuits()
	ids := make([]int, 0, len(circuits))
	for id := range circuits {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	h := fnv.New32a()
	for _, id := range ids {
		for i, s := range circuits[query.QueryID(id)].Services {
			fmt.Fprintf(h, "%d/%d@%d;", id, i, s.Node)
		}
	}
	return float64(h.Sum32())
}
