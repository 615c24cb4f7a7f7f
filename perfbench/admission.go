package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/hourglass/sbon/internal/adapt"
	"github.com/hourglass/sbon/internal/optimizer"
	"github.com/hourglass/sbon/internal/query"
	"github.com/hourglass/sbon/internal/topology"
)

// admissionSize shapes the admission workload.
type admissionSize struct {
	StubNodes int // per stub domain; 21 gives the 1024-node overlay
	Streams   int
	Templates int
	ZipfSkew  float64
	Live      int // live-circuit cap; the oldest circuit leaves first
	// Radius is the multi-query reuse radius as a share of the median
	// cost-space distance between two nodes. A fixed radius in absolute
	// units let each overlay's geometry decide how much reuse happened
	// (27% to 78% of arrivals at radius 20 across seeds), and with it
	// the optimizer's work and the live heap.
	Radius     float64
	DriftEvery int     // arrivals between background-load drift steps
	DriftFrac  float64 // share of nodes re-drawn per drift step
	SweepEvery int     // arrivals between incremental sweeps
	Warm       int     // untimed arrivals that fill the live population
	Arrivals   int     // timed arrivals per instance
	// Instances independent overlays (own topology, catalog and
	// arrivals, all from the seed) run one after another and pool their
	// samples: one overlay's geometry and reuse pattern would otherwise
	// dominate the spread between seeds. setup_s is their median set-up.
	Instances int
}

// admissionArrivalsPerSecond sizes the timed loop: about this many
// arrivals take one second on the reference host (2-core Xeon).
const admissionArrivalsPerSecond = 2000

func admissionSizeFor(seconds int) admissionSize {
	return admissionSize{
		StubNodes:  21,
		Streams:    16,
		Templates:  40,
		ZipfSkew:   0.8,
		Live:       300,
		Radius:     0.15,
		DriftEvery: 50,
		DriftFrac:  0.01,
		SweepEvery: 100,
		Warm:       600,
		Arrivals:   blocksFor(seconds, 1.0/8, admissionArrivalsPerSecond) * opBlock,
		Instances:  8,
	}
}

func runAdmission(seed int64, seconds int, tr *tracer) (*outcome, error) {
	return admission(seed, admissionSizeFor(seconds), tr)
}

// admissionState is one set-up of the control plane.
type admissionState struct {
	topo     *topology.Topology
	spec     catalogSpec
	env      *optimizer.Env
	reg      *optimizer.Registry
	dep      *optimizer.Deployment
	mq       *optimizer.MultiQuery
	co       *adapt.Coordinator
	arrivals []query.Query
	drift    [][]loadChange
	live     []query.QueryID
}

// admission is the online control plane: one client submits queries in
// a closed loop (each waits for its circuit), old circuits depart, node
// loads drift, and incremental sweeps re-place services — with no data
// plane at all.
func admission(seed int64, sz admissionSize, tr *tracer) (*outcome, error) {
	out := newOutcome()
	var acc admissionAcc
	var setupTimes []time.Duration
	var ratioSamples []float64
	for k := 0; k < sz.Instances; k++ {
		t0 := time.Now()
		st, err := admissionSetup(seed, k, sz, tr)
		if err != nil {
			return nil, err
		}
		var warm admissionAcc
		for a := 0; a < sz.Warm; a++ {
			if err := st.arrive(a, sz, nil, -1, &warm); err != nil {
				return nil, err
			}
		}
		setupTimes = append(setupTimes, time.Since(t0))

		phase := startTimed()
		root := tr.begin("bench.admission", -1, k)
		acc.ops.start()
		for a := sz.Warm; a < sz.Warm+sz.Arrivals; a++ {
			if err := st.arrive(a, sz, tr, root, &acc); err != nil {
				return nil, err
			}
			if (a+1)%sz.SweepEvery == 0 {
				ratioSamples = append(ratioSamples, deployedUsage(st.dep, st.spec, st.topo).ratio())
			}
		}
		tr.end(root)
		wall, mem := phase.stop()
		out.addTimed(root, wall, mem)
		out.det[fmt.Sprintf("placement%d", k)] = placementHash(st.dep)
		if err := st.checkLoadConservation(); err != nil {
			return nil, err
		}
	}

	attempted := sz.Instances * sz.Arrivals
	admitted := float64(attempted - acc.refused)
	ratio := mean(ratioSamples)
	out.attempted, out.failed = attempted, acc.refused
	out.e2e["setup_s"] = metric{setupMedian(setupTimes), "s"}
	if err := acc.ops.report(out); err != nil {
		return nil, err
	}
	out.e2e["ok_frac"] = metric{admitted / float64(attempted), "ratio"}
	out.e2e["usage_ratio"] = metric{ratio, "ratio"}
	fmt.Printf("admission: %d instances x %d arrivals (%d admitted; %d latency samples in %d blocks of %d, %d beyond each block's p99), %d sweeps, live cap %d\n",
		sz.Instances, sz.Arrivals, int(admitted), len(acc.ops.latUs), len(acc.ops.blockQPS), opBlock, opBlock/100, acc.sweeps, sz.Live)

	out.det["usage_ratio"] = ratio
	out.det["admitted"] = admitted
	out.det["plans"] = float64(acc.plans)
	out.det["examined"] = float64(acc.examined)
	out.det["hops"] = float64(acc.hops)
	out.det["migrated"] = float64(acc.migrated)

	l := out.layer
	l["optimizer.plans_per_query"] = float64(acc.plans) / admitted
	l["optimizer.circuits_per_query"] = float64(acc.circuits) / admitted
	l["optimizer.instances_examined_per_query"] = float64(acc.examined) / admitted
	l["optimizer.reuse_frac"] = float64(acc.reusing) / admitted
	l["placement.map_err_mean"] = acc.mapErr / admitted
	l["dht.hops_per_query"] = float64(acc.hops) / admitted
	l["dht.peers_walked_per_query"] = float64(acc.walked) / admitted
	l["dht.candidates_per_query"] = float64(acc.candidates) / admitted
	l["adapt.services_evaluated"] = float64(acc.evaluated)
	l["adapt.migrated"] = float64(acc.migrated)
	if tr != nil {
		l["topology.build_s"] = tr.total("topology.Generate")
		l["optimizer.env_s"] = tr.total("optimizer.NewEnv")
		l["optimizer.optimize_p50_us"] = quantile(scaled(tr.durations("optimizer.Optimize"), 1e6), 0.5)
		l["optimizer.optimize_p99_us"] = quantile(scaled(tr.durations("optimizer.Optimize"), 1e6), 0.99)
		l["optimizer.deploy_p50_us"] = quantile(scaled(tr.durations("optimizer.Deploy"), 1e6), 0.5)
		l["optimizer.cancel_s"] = tr.total("optimizer.Cancel")
		l["optimizer.drift_s"] = tr.total("optimizer.SetBackgroundLoad")
		l["adapt.sweep_p50_ms"] = quantile(scaled(tr.durations("adapt.SweepIncremental"), 1e3), 0.5)
		l["adapt.sweep_s"] = tr.total("adapt.SweepIncremental")
	}
	return out, nil
}

func admissionSetup(seed int64, k int, sz admissionSize, tr *tracer) (*admissionState, error) {
	cfg := topology.DefaultConfig()
	cfg.StubNodes = sz.StubNodes
	st := &admissionState{}
	var err error
	tr.do("topology.Generate", -1, k, func() {
		if st.topo, err = topology.Generate(cfg, rngFor(seed, k, 1)); err == nil {
			st.topo.LatencyMatrix()
		}
	})
	if err != nil {
		return nil, err
	}
	stubs := st.topo.StubNodeIDs()
	st.spec = genCatalog(rngFor(seed, k, 2), stubs, sz.Streams)
	templates, err := genTemplates(rngFor(seed, k, 3), sz.Streams, sz.Templates, 2, 4, sz.ZipfSkew)
	if err != nil {
		return nil, err
	}
	// Warm and timed arrivals are drawn separately so each has the full mix.
	st.arrivals = append(genQueries(rngFor(seed, k, 4), stubs, templates, sz.Warm, sz.ZipfSkew, 1),
		genQueries(rngFor(seed, k, 6), stubs, templates, sz.Arrivals, sz.ZipfSkew, 1+sz.Warm)...)
	st.drift = genDrift(rngFor(seed, k, 5), st.topo.NumNodes(), (sz.Warm+sz.Arrivals)/sz.DriftEvery+1, sz.DriftFrac)
	cat, err := st.spec.build()
	if err != nil {
		return nil, err
	}
	envCfg := optimizer.DefaultEnvConfig(seed)
	envCfg.UseDHT = true
	tr.do("optimizer.NewEnv", -1, k, func() { st.env, err = optimizer.NewEnv(st.topo, cat, envCfg) })
	if err != nil {
		return nil, err
	}
	st.reg = optimizer.NewRegistry()
	st.dep = optimizer.NewDeployment(st.env, st.reg)
	st.mq = optimizer.NewMultiQuery(st.env, st.reg, sz.Radius*medianSpan(st.env, rngFor(seed, k, 7)))
	st.co = &adapt.Coordinator{Dep: st.dep}
	return st, nil
}

// admissionAcc accumulates the timed loop's outcomes.
type admissionAcc struct {
	ops                         opLog // one operation per arrival, refused ones too
	refused                     int
	plans, circuits, examined   int
	reusing                     int // admitted circuits that reuse at least one instance
	hops, walked, candidates    int
	mapErr                      float64
	sweeps, evaluated, migrated int
}

// arrive admits arrival a (optimize, then deploy), retires the oldest
// circuit past the live cap, and runs the drift and sweep schedules.
func (st *admissionState) arrive(a int, sz admissionSize, tr *tracer, root int, acc *admissionAcc) error {
	q := st.arrivals[a]
	var res *optimizer.Result
	var err error
	t0 := time.Now()
	tr.do("optimizer.Optimize", root, a, func() { res, err = st.mq.Optimize(q) })
	if err == nil {
		if verr := res.Circuit.Validate(); verr != nil {
			return fmt.Errorf("arrival %d: invalid circuit: %w", a, verr)
		}
		tr.do("optimizer.Deploy", root, a, func() { err = st.dep.Deploy(res.Circuit) })
	}
	acc.ops.add(time.Since(t0))
	if err != nil {
		acc.refused++
	} else {
		st.live = append(st.live, q.ID)
		acc.plans += res.PlansConsidered
		acc.circuits += res.CircuitsConsidered
		acc.examined += res.InstancesExamined
		if res.ReusedServices > 0 {
			acc.reusing++
		}
		acc.hops += res.MapStats.LookupHops
		acc.walked += res.MapStats.PeersWalked
		acc.candidates += res.MapStats.Candidates
		acc.mapErr += res.MapStats.Error
	}
	if len(st.live) > sz.Live {
		id := st.live[0]
		st.live = st.live[1:]
		tr.do("optimizer.Cancel", root, a, func() { err = st.dep.Cancel(id) })
		if err != nil {
			return fmt.Errorf("cancel q%d: %w", id, err)
		}
	}
	if (a+1)%sz.DriftEvery == 0 {
		tr.do("optimizer.SetBackgroundLoad", root, a, func() {
			for _, c := range st.drift[(a+1)/sz.DriftEvery] {
				st.env.SetBackgroundLoad(c.Node, c.Load)
			}
		})
	}
	if (a+1)%sz.SweepEvery == 0 {
		var ss adapt.SweepStats
		tr.do("adapt.SweepIncremental", root, a, func() { ss, err = st.co.SweepIncremental(nil) })
		if err != nil {
			return fmt.Errorf("sweep after arrival %d: %w", a, err)
		}
		acc.sweeps++
		acc.evaluated += ss.ServicesEvaluated
		acc.migrated += ss.Migrated
	}
	return nil
}

// checkLoadConservation cancels every live circuit and requires each
// node's load to return to its background load, and the service
// registry to empty.
func (st *admissionState) checkLoadConservation() error {
	for _, id := range st.live {
		if err := st.dep.Cancel(id); err != nil {
			return fmt.Errorf("final cancel q%d: %w", id, err)
		}
	}
	st.live = nil
	for i := 0; i < st.topo.NumNodes(); i++ {
		n := topology.NodeID(i)
		if d := st.env.Load(n) - st.env.BackgroundLoad(n); math.Abs(d) > 1e-9 {
			return fmt.Errorf("load conservation: node %d load %v, background %v after every circuit left", n, st.env.Load(n), st.env.BackgroundLoad(n))
		}
	}
	if st.reg.Len() != 0 {
		return fmt.Errorf("load conservation: %d service instances still registered after every circuit left", st.reg.Len())
	}
	return nil
}

// medianSpan is the median cost-space distance between random node
// pairs.
func medianSpan(env *optimizer.Env, rng *rand.Rand) float64 {
	n := env.Topo.NumNodes()
	d := make([]float64, 2000)
	for i := range d {
		a, b := topology.NodeID(rng.Intn(n)), topology.NodeID(rng.Intn(n))
		d[i] = env.Space().Distance(env.Point(a), env.Point(b))
	}
	return median(d)
}
