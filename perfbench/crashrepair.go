package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/hourglass/sbon/internal/adapt"
	"github.com/hourglass/sbon/internal/failure"
	"github.com/hourglass/sbon/internal/optimizer"
	"github.com/hourglass/sbon/internal/overlay"
	"github.com/hourglass/sbon/internal/placement"
	"github.com/hourglass/sbon/internal/simtime"
	"github.com/hourglass/sbon/internal/stream"
	"github.com/hourglass/sbon/internal/topology"
)

// crashSize shapes the crash-repair workload.
type crashSize struct {
	StubNodes int // per stub domain; 21 gives the 1024-node overlay
	Streams   int
	Templates int
	ZipfSkew  float64
	Circuits  int
	DropProb  float64
	JitterMs  float64
	CrashFrac float64 // share of all nodes that crash
	Heartbeat time.Duration
	Step      time.Duration // one timed clock advance: one operation
	Round     int           // steps per detect → repair → sweep round
	DriftFrac float64       // share of nodes re-drawn per round
	WarmSim   time.Duration // untimed execution before the loop
	Steps     int           // timed steps per instance, whole rounds
	// Instances independent overlays run one after another and pool
	// their samples, as in admission.
	Instances   int
	TupleSizeKB float64
}

// crashSimSecondsPerSecond sizes the timed loop: about this many
// simulated seconds of the loop run per wall second on the reference
// host (2-core Xeon).
const crashSimSecondsPerSecond = 11

func crashSizeFor(seconds int) crashSize {
	const instances = 4
	step := 50 * time.Millisecond
	return crashSize{
		StubNodes:   21,
		Streams:     16,
		Templates:   24,
		ZipfSkew:    0.8,
		Circuits:    400,
		DropProb:    0.01,
		JitterMs:    2,
		CrashFrac:   0.08,
		Heartbeat:   200 * time.Millisecond,
		Step:        step,
		Round:       10,
		DriftFrac:   0.01,
		WarmSim:     4 * time.Second,
		Steps:       blocksFor(seconds, 1.0/instances, crashSimSecondsPerSecond/step.Seconds()) * opBlock,
		Instances:   instances,
		TupleSizeKB: 4,
	}
}

func runCrashRepair(seed int64, seconds int, tr *tracer) (*outcome, error) {
	return crashRepair(seed, crashSizeFor(seconds), tr)
}

// crashState is one set-up of the faulty 1024-node data plane.
type crashState struct {
	topo    *topology.Topology
	spec    catalogSpec
	env     *optimizer.Env
	clk     *simtime.VirtualClock
	net     *overlay.Network
	engine  *stream.Engine
	dep     *optimizer.Deployment
	runs    []*stream.Running
	fi      *overlay.FaultInjector
	hb      *overlay.Heartbeats
	det     *failure.Detector
	co      *adapt.Coordinator
	crashes []crashSpec
	drift   [][]loadChange
	release func()
}

func (st *crashState) close() {
	if st.det != nil {
		st.det.Stop()
	}
	if st.hb != nil {
		st.hb.Stop()
	}
	if st.fi != nil {
		st.fi.Stop()
	}
	if st.engine != nil {
		st.engine.Close()
	}
	if st.net != nil {
		st.net.Stop()
	}
	if st.release != nil {
		st.release()
	}
}

func (st *crashState) counter(name string) float64 { return st.net.Metrics.Counter(name).Value() }

// crashRepair drives the data plane through faults: ambient loss and
// jitter, and unannounced crashes of operator hosts and bystanders,
// repaired by the detect → HandleFailures → SweepIncremental loop while
// background loads drift.
func crashRepair(seed int64, sz crashSize, tr *tracer) (*outcome, error) {
	out := newOutcome()
	var setupTimes []time.Duration
	acc := &crashAcc{}
	for k := 0; k < sz.Instances; k++ {
		if k > 0 {
			runtime.GC()
		}
		t0 := time.Now()
		st, err := crashSetup(seed, k, sz, tr)
		if err != nil {
			if st != nil {
				st.close()
			}
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(t0))
		err = st.timed(k, sz, tr, out, acc)
		st.close()
		if err != nil {
			return nil, err
		}
	}

	rep, sweeps, outages, ratio := acc.rep, acc.sweeps, acc.outages, acc.ratio
	msgs, lost, produced, delivered := acc.msgs, acc.lost, acc.produced, acc.delivered
	loopSim := float64(sz.Instances*sz.Steps) * sz.Step.Seconds()
	kept := 1 - lost/produced
	attempted := rep.Planned + rep.Unmovable
	out.attempted, out.failed = max(attempted, 1), attempted-rep.Repaired
	out.e2e["setup_s"] = metric{setupMedian(setupTimes), "s"}
	if err := acc.ops.report(out); err != nil {
		return nil, err
	}
	out.e2e["ok_frac"] = metric{kept, "ratio"}
	out.e2e["usage_ratio"] = metric{ratio, "ratio"}
	fmt.Printf("crash-repair: %d instances, %d circuits, %d crashes (%d repair samples, %d beyond p80); %d steps of %v sim (%d blocks of %d, %d beyond each block's p99); repaired %d of %d, lost %.0f of %.0f tuples\n",
		sz.Instances, acc.circuits, acc.crashes, len(outages), len(outages)/5, sz.Instances*sz.Steps, sz.Step, len(acc.ops.blockQPS), opBlock, opBlock/100, rep.Repaired, attempted, lost, produced)

	out.det["usage_ratio"] = ratio
	out.det["kept"] = kept
	out.det["repair_p50"] = quantile(outages, 0.5)
	out.det["repair_p80"] = quantile(outages, 0.8)
	out.det["repaired"] = float64(rep.Repaired)
	out.det["migrated"] = float64(sweeps.Migrated)
	out.det["msgs"] = msgs

	l := out.layer
	l["adapt.services_evaluated"] = float64(sweeps.ServicesEvaluated)
	l["adapt.migrated"] = float64(sweeps.Migrated)
	l["adapt.repaired"] = float64(rep.Repaired)
	l["adapt.aborted"] = float64(rep.Aborted + sweeps.Aborted)
	l["adapt.state_lost_kb"] = rep.StateLostKB
	l["adapt.repair_p50_ms"] = quantile(outages, 0.5)
	l["adapt.repair_p80_ms"] = quantile(outages, 0.8)
	l["failure.detect_p50_ms"] = quantile(acc.detections, 0.5)
	l["failure.deaths"] = float64(acc.deaths)
	l["failure.false_deaths"] = float64(acc.falseDeaths)
	l["simtime.pending_peak"] = float64(acc.pendingPeak)
	l["overlay.msgs_sent"] = msgs
	l["overlay.kb_sent"] = acc.kb
	l["overlay.hb_recv"] = acc.hb
	l["overlay.msgs_per_s"] = msgs / loopSim
	l["overlay.lost"] = lost
	l["stream.tuples_produced"] = produced
	l["stream.tuples_delivered"] = delivered
	l["stream.tuples_per_s"] = delivered / (loopSim + float64(sz.Instances)*(sz.WarmSim.Seconds()+3))
	l["stream.migrations"] = float64(sweeps.DataPlane)
	if tr != nil {
		l["topology.build_s"] = tr.total("topology.Generate")
		l["optimizer.env_s"] = tr.total("optimizer.NewEnv")
		l["stream.deploy_s"] = tr.total("stream.Deploy")
		l["optimizer.drift_s"] = tr.total("optimizer.SetBackgroundLoad")
		l["adapt.sweep_p50_ms"] = quantile(scaled(tr.durations("adapt.SweepIncremental"), 1e3), 0.5)
		l["adapt.sweep_s"] = tr.total("adapt.SweepIncremental")
		l["adapt.repair_round_p50_ms"] = median(acc.repairMs)
		l["simtime.advance_s"] = tr.total("simtime.Sleep")
	}
	return out, nil
}

// crashAcc accumulates what the instances' timed loops and books
// measured; ratio is the mean over instances.
type crashAcc struct {
	ops                                     opLog // one operation per clock step
	rep                                     adapt.RepairStats
	sweeps                                  adapt.SweepStats
	outages, detections, repairMs           []float64
	deaths, falseDeaths, pendingPeak        int
	crashes, circuits                       int
	msgs, kb, hb, lost, produced, delivered float64
	ratio                                   float64
}

// timed runs the instance's detect → repair → sweep loop, checks the
// failure invariants, then drains and closes the loss books, adding its
// results to r.
func (st *crashState) timed(k int, sz crashSize, tr *tracer, out *outcome, r *crashAcc) error {
	r.crashes += len(st.crashes)
	r.circuits += len(st.runs)
	died := map[topology.NodeID]bool{}
	msgs0, kb0, hb0 := st.counter("msgs.sent"), st.counter("kb.sent"), st.counter("hb.recv")

	phase := startTimed()
	root := tr.begin("bench.crash-repair", -1, k)
	r.ops.start()
	for step := 0; step < sz.Steps; step++ {
		t0 := time.Now()
		tr.do("simtime.Sleep", root, step, func() { st.clk.Sleep(sz.Step) })
		if (step+1)%sz.Round == 0 {
			if err := st.round(step/sz.Round, died, tr, root, r); err != nil {
				return err
			}
		}
		r.ops.add(time.Since(t0))
		r.pendingPeak = max(r.pendingPeak, st.clk.PendingEvents())
	}
	tr.end(root)
	wall, mem := phase.stop()
	out.addTimed(root, wall, mem)
	r.msgs += st.counter("msgs.sent") - msgs0
	r.kb += st.counter("kb.sent") - kb0
	r.hb += st.counter("hb.recv") - hb0

	// Hard invariants: every planned crash detected, no false deaths,
	// no circuit cancelled (endpoints never crash), nothing left on a
	// crashed node.
	crashed := map[topology.NodeID]bool{}
	for _, c := range st.crashes {
		crashed[c.Node] = true
	}
	falseDeaths := 0
	for n := range died {
		if !crashed[n] {
			falseDeaths++
		}
	}
	deaths := st.det.Snapshot().Deaths
	if deaths != len(st.crashes) || falseDeaths != 0 {
		return fmt.Errorf("failure: %d deaths (%d false) for %d planned crashes", deaths, falseDeaths, len(st.crashes))
	}
	if r.rep.CancelledCircuits != 0 {
		return fmt.Errorf("repair cancelled %d circuits though no endpoint crashed", r.rep.CancelledCircuits)
	}
	for id, c := range st.dep.Circuits() {
		for i, s := range c.Services {
			if crashed[s.Node] {
				return fmt.Errorf("q%d service %d still placed on crashed node %d", id, i, s.Node)
			}
		}
	}
	r.deaths += deaths
	r.falseDeaths += falseDeaths
	r.ratio += deployedUsage(st.dep, st.spec, st.topo).ratio() / float64(sz.Instances)
	out.det[fmt.Sprintf("placement%d", k)] = placementHash(st.dep)

	// Drain handoffs, stop producers, let in-flight tuples land, then
	// close the loss books.
	st.clk.Sleep(2 * time.Second)
	for _, run := range st.runs {
		run.HaltProducers()
	}
	st.clk.Sleep(time.Second)
	for _, run := range st.runs {
		r.produced += float64(run.TuplesProduced())
		r.delivered += float64(run.Measure().TuplesOut)
	}
	r.lost += st.counter("faults.dropped") + st.counter("msgs.down_dropped") + st.counter("msgs.unrouted") + st.counter("repair.buffered_lost")
	return nil
}

// round runs one detect → repair → sweep round: take the detector's
// events, repair what died, re-load a share of the nodes and sweep.
func (st *crashState) round(round int, died map[topology.NodeID]bool, tr *tracer, root int, r *crashAcc) error {
	var events []failure.Event
	tr.do("failure.TakeEvents", root, round, func() { events = st.det.TakeEvents() })
	var diedNow []topology.NodeID
	for _, ev := range events {
		if ev.Kind != failure.Died {
			continue
		}
		if died[ev.Node] {
			return fmt.Errorf("failure: node %d declared dead twice", ev.Node)
		}
		died[ev.Node] = true
		diedNow = append(diedNow, ev.Node)
		if at, ok := st.fi.CrashTime(ev.Node); ok {
			r.detections = append(r.detections, float64(ev.At.Sub(at))/float64(time.Millisecond))
		}
	}
	var rr adapt.RepairStats
	var err error
	t0 := time.Now()
	tr.do("adapt.HandleFailures", root, round, func() { rr, err = st.co.HandleFailures(events, nil) })
	if err != nil {
		return fmt.Errorf("round %d repair: %w", round, err)
	}
	if rr.Planned+rr.Unmovable > 0 {
		r.repairMs = append(r.repairMs, float64(time.Since(t0))/float64(time.Millisecond))
	}
	now := st.clk.Now()
	for _, n := range diedNow {
		if at, ok := st.fi.CrashTime(n); ok {
			r.outages = append(r.outages, float64(now.Sub(at))/float64(time.Millisecond))
		}
	}
	addRepair(&r.rep, rr)
	tr.do("optimizer.SetBackgroundLoad", root, round, func() {
		for _, c := range st.drift[round] {
			st.env.SetBackgroundLoad(c.Node, c.Load)
		}
	})
	var ss adapt.SweepStats
	tr.do("adapt.SweepIncremental", root, round, func() { ss, err = st.co.SweepIncremental(nil) })
	if err != nil {
		return fmt.Errorf("round %d sweep: %w", round, err)
	}
	r.sweeps.ServicesEvaluated += ss.ServicesEvaluated
	r.sweeps.Migrated += ss.Migrated
	r.sweeps.DataPlane += ss.DataPlane
	r.sweeps.Aborted += ss.Aborted
	return nil
}

func addRepair(a *adapt.RepairStats, b adapt.RepairStats) {
	a.DeadNodes += b.DeadNodes
	a.CancelledCircuits += b.CancelledCircuits
	a.Planned += b.Planned
	a.Repaired += b.Repaired
	a.Unmovable += b.Unmovable
	a.Aborted += b.Aborted
	a.StateLostKB += b.StateLostKB
}

func crashSetup(seed int64, k int, sz crashSize, tr *tracer) (*crashState, error) {
	cfg := topology.DefaultConfig()
	cfg.StubNodes = sz.StubNodes
	st := &crashState{}
	var err error
	tr.do("topology.Generate", -1, k, func() {
		if st.topo, err = topology.Generate(cfg, rngFor(seed, k, 1)); err == nil {
			st.topo.LatencyMatrix()
		}
	})
	if err != nil {
		return nil, err
	}
	n := st.topo.NumNodes()
	stubs := st.topo.StubNodeIDs()
	st.spec = genCatalog(rngFor(seed, k, 2), stubs, sz.Streams)
	templates, err := genTemplates(rngFor(seed, k, 3), sz.Streams, sz.Templates, 1, 2, sz.ZipfSkew)
	if err != nil {
		return nil, err
	}
	queries := genQueries(rngFor(seed, k, 4), stubs, templates, sz.Circuits, sz.ZipfSkew, 1)
	st.drift = genDrift(rngFor(seed, k, 5), n, sz.Steps/sz.Round, sz.DriftFrac)
	cat, err := st.spec.build()
	if err != nil {
		return nil, err
	}
	envCfg := optimizer.DefaultEnvConfig(seed)
	envCfg.UseDHT = false
	tr.do("optimizer.NewEnv", -1, k, func() { st.env, err = optimizer.NewEnv(st.topo, cat, envCfg) })
	if err != nil {
		return nil, err
	}
	var res []optimizer.Result
	tr.do("optimizer.OptimizeBatch", -1, k, func() {
		res, err = optimizer.OptimizeBatch(st.env, queries, optimizer.BatchOptions{Workers: runtime.NumCPU()})
	})
	if err != nil {
		return nil, err
	}

	st.clk = simtime.NewVirtual()
	st.release = st.clk.Drive()
	st.net = overlay.NewNetwork(st.topo, overlay.Config{TimeScale: time.Millisecond, InboxSize: 8192, Clock: st.clk})
	st.net.Start()
	ecfg := stream.DefaultEngineConfig()
	ecfg.Seed = seed
	ecfg.TupleSizeKB = sz.TupleSizeKB
	ecfg.Keyspace = 250
	st.engine = stream.NewEngine(st.net, st.topo, ecfg)
	st.dep = optimizer.NewDeployment(st.env, nil)
	tr.do("stream.Deploy", -1, k, func() {
		for i := range res {
			c := res[i].Circuit
			if err = c.Validate(); err != nil {
				return
			}
			if err = st.dep.Deploy(c); err != nil {
				return
			}
			var r *stream.Running
			if r, err = st.engine.Deploy(c); err != nil {
				return
			}
			st.runs = append(st.runs, r)
		}
	})
	if err != nil {
		return st, err
	}

	// Crash plan: no endpoint ever crashes; half the victims host
	// operators. Crashes start one second into the loop and stop five
	// seconds before its end, so every one is detected and repaired
	// inside the timed phase.
	endpoint := map[topology.NodeID]bool{}
	opHost := map[topology.NodeID]bool{}
	for _, c := range st.dep.Circuits() {
		for _, s := range c.Services {
			if s.Pinned {
				endpoint[s.Node] = true
			} else {
				opHost[s.Node] = true
			}
		}
	}
	var opHosts, ambient []topology.NodeID
	for i := 0; i < n; i++ {
		id := topology.NodeID(i)
		switch {
		case endpoint[id]:
		case opHost[id]:
			opHosts = append(opHosts, id)
		default:
			ambient = append(ambient, id)
		}
	}
	loop := time.Duration(sz.Steps) * sz.Step
	count := int(sz.CrashFrac*float64(n) + 0.5)
	st.crashes, err = genCrashes(rngFor(seed, k, 6), opHosts, ambient, count, sz.WarmSim+time.Second, loop-6*time.Second)
	if err != nil {
		return st, err
	}
	plan := overlay.FaultPlan{Seed: seed, DropProb: sz.DropProb, JitterMs: sz.JitterMs}
	for _, c := range st.crashes {
		plan.Crashes = append(plan.Crashes, overlay.NodeCrash{Node: c.Node, At: c.At})
	}
	st.fi = st.net.InstallFaults(plan)
	st.hb = st.net.StartHeartbeatsOpts(sz.Heartbeat, 0.05, overlay.HeartbeatOpts{SkipDownTargets: true})
	st.det = failure.New(st.net, failure.DefaultConfig(sz.Heartbeat))
	st.co = &adapt.Coordinator{
		Dep:       st.dep,
		Engine:    st.engine,
		Clock:     st.clk,
		Mapper:    placement.OracleMapper{Source: st.env},
		Model:     optimizer.TrueLatency{Topo: st.topo},
		Threshold: 0.3,
		TicketTTL: 5 * time.Second,
	}
	tr.do("simtime.SleepWarm", -1, k, func() { st.clk.Sleep(sz.WarmSim) })
	return st, nil
}
