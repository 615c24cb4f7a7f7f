package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/hourglass/sbon/internal/optimizer"
	"github.com/hourglass/sbon/internal/overlay"
	"github.com/hourglass/sbon/internal/stream"
)

// dataplaneSize shapes the dataplane-16k workload.
type dataplaneSize struct {
	scaleSize
	Circuits  int // circuits planned in set-up that execute on the engine
	Heartbeat time.Duration
	WarmSim   time.Duration // untimed data-plane warm-up
	Step      time.Duration // one timed clock advance: one operation
	Steps     int           // timed steps per instance
	// Instances independent overlays run one after another and pool
	// their steps, as in admission.
	Instances   int
	TupleSizeKB float64
}

// dataplaneSimSecondsPerSecond sizes the timed phase: about this many
// simulated seconds of the 16k data plane run per wall second on the
// reference host (2-core Xeon).
const dataplaneSimSecondsPerSecond = 2.6

func dataplaneSizeFor(seconds int) dataplaneSize {
	const instances = 2
	step := 10 * time.Millisecond
	return dataplaneSize{
		scaleSize:   scale16k,
		Circuits:    512,
		Heartbeat:   500 * time.Millisecond,
		WarmSim:     2 * time.Second,
		Step:        step,
		Steps:       blocksFor(seconds, 1.0/instances, dataplaneSimSecondsPerSecond/step.Seconds()) * opBlock,
		Instances:   instances,
		TupleSizeKB: 4,
	}
}

func runDataplane(seed int64, seconds int, tr *tracer) (*outcome, error) {
	return dataplane(seed, dataplaneSizeFor(seconds), tr)
}

// dataplaneState is the 16k-node overlay with circuits executing on it.
type dataplaneState struct {
	*scaleState
	dep    *optimizer.Deployment
	net    *overlay.Network
	engine *stream.Engine
	runs   []*stream.Running
	hb     *overlay.Heartbeats
}

// close stops every goroutine and timer the set-up started.
func (st *dataplaneState) close() {
	if st.hb != nil {
		st.hb.Stop()
	}
	if st.engine != nil {
		st.engine.Close()
	}
	if st.net != nil {
		st.net.Stop()
	}
	st.scaleState.close()
}

// dataplane is the steady data plane at scale: circuits plus
// full-population heartbeats on the single event queue, under a
// gossiping Vivaldi ticker, advanced in fixed virtual-time steps.
func dataplane(seed int64, sz dataplaneSize, tr *tracer) (*outcome, error) {
	out := newOutcome()
	var setupTimes []time.Duration
	r := &dataplaneAcc{}
	for k := 0; k < sz.Instances; k++ {
		if k > 0 {
			runtime.GC()
		}
		t0 := time.Now()
		st, err := dataplaneSetup(seed, k, sz, tr)
		if err != nil {
			if st != nil {
				st.close()
			}
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(t0))
		err = st.timed(k, sz, tr, out, r)
		st.close()
		if err != nil {
			return nil, err
		}
	}
	simSecs := float64(sz.Instances*sz.Steps) * sz.Step.Seconds()
	out.attempted = sz.Instances * sz.Steps
	out.e2e["setup_s"] = metric{setupMedian(setupTimes), "s"}
	if err := r.ops.report(out); err != nil {
		return nil, err
	}
	out.e2e["ok_frac"] = metric{1 - r.lost/r.msgs, "ratio"}
	out.e2e["usage_ratio"] = metric{r.ratio, "ratio"}
	fmt.Printf("dataplane-16k: %d instances of %d nodes; %d circuits; %d steps of %v sim each (%d blocks of %d, %d beyond each block's p99), pending peak %d\n",
		sz.Instances, r.nodes, sz.Circuits, sz.Steps, sz.Step, len(r.ops.blockQPS), opBlock, opBlock/100, r.pendingPeak)

	out.det["usage_ratio"] = r.ratio
	out.det["msgs"] = r.msgs
	out.det["hb"] = r.hb
	out.det["produced"] = r.produced
	out.det["delivered"] = r.delivered
	out.det["pending_peak"] = float64(r.pendingPeak)

	l := out.layer
	l["vivaldi.rel_err_p50"] = r.relErr
	l["simtime.pending_peak"] = float64(r.pendingPeak)
	l["overlay.msgs_sent"] = r.msgs
	l["overlay.kb_sent"] = r.kb
	l["overlay.hb_recv"] = r.hb
	l["overlay.msgs_per_s"] = r.msgs / simSecs
	l["overlay.lost"] = r.lost
	l["stream.tuples_produced"] = r.produced
	l["stream.tuples_delivered"] = r.delivered
	l["stream.tuples_per_s"] = r.delivered / simSecs
	if tr != nil {
		l["topology.build_s"] = tr.total("topology.Generate")
		l["vivaldi.embed_s"] = tr.total("vivaldi.Ticker")
		l["optimizer.env_s"] = tr.total("optimizer.NewEnvFromCoords")
		l["optimizer.batch_s"] = tr.total("optimizer.OptimizeBatch")
		l["stream.deploy_s"] = tr.total("stream.Deploy")
		l["simtime.advance_s"] = tr.total("simtime.Sleep")
	}
	return out, nil
}

// dataplaneAcc accumulates what the instances' timed phases measured;
// ratio and relErr are means over instances.
type dataplaneAcc struct {
	ops                                     opLog // one operation per clock step
	pendingPeak, nodes                      int
	msgs, kb, hb, lost, produced, delivered float64
	ratio, relErr                           float64
}

// timed advances the instance's clock step by step and runs its checks,
// adding its results to r.
func (st *dataplaneState) timed(k int, sz dataplaneSize, tr *tracer, out *outcome, r *dataplaneAcc) error {
	r.nodes = st.topo.NumNodes()
	r.relErr += st.env.EmbeddingQuality.MedianRelErr / float64(sz.Instances)
	msgs0, kb0, hb0 := st.counter("msgs.sent"), st.counter("kb.sent"), st.counter("hb.recv")
	lost0 := st.counter("msgs.unrouted") + st.counter("msgs.dropped")
	produced0, delivered0 := st.tuples()

	phase := startTimed()
	root := tr.begin("bench.dataplane", -1, k)
	r.ops.start()
	for s := 0; s < sz.Steps; s++ {
		t0 := time.Now()
		tr.do("simtime.Sleep", root, s, func() { st.clk.Sleep(sz.Step) })
		r.ops.add(time.Since(t0))
		r.pendingPeak = max(r.pendingPeak, st.clk.PendingEvents())
	}
	tr.end(root)
	wall, mem := phase.stop()
	out.addTimed(root, wall, mem)

	if unrouted := st.counter("msgs.unrouted"); unrouted != 0 {
		return fmt.Errorf("overlay: %v messages unrouted on a fault-free overlay", unrouted)
	}
	r.msgs += st.counter("msgs.sent") - msgs0
	r.kb += st.counter("kb.sent") - kb0
	r.hb += st.counter("hb.recv") - hb0
	r.lost += st.counter("msgs.unrouted") + st.counter("msgs.dropped") - lost0
	produced1, delivered1 := st.tuples()
	r.produced += float64(produced1 - produced0)
	r.delivered += float64(delivered1 - delivered0)
	r.ratio += deployedUsage(st.dep, st.spec, st.topo).ratio() / float64(sz.Instances)
	out.det[fmt.Sprintf("placement%d", k)] = placementHash(st.dep)
	return nil
}

func (st *dataplaneState) counter(name string) float64 { return st.net.Metrics.Counter(name).Value() }

// tuples sums produced and delivered tuples over the executing circuits.
func (st *dataplaneState) tuples() (produced, delivered int) {
	for _, r := range st.runs {
		produced += r.TuplesProduced()
		delivered += r.Measure().TuplesOut
	}
	return produced, delivered
}

func dataplaneSetup(seed int64, k int, sz dataplaneSize, tr *tracer) (*dataplaneState, error) {
	sc, err := scaleSetup(seed, k, sz.scaleSize, tr)
	if sc == nil {
		return nil, err
	}
	st := &dataplaneState{scaleState: sc}
	if err != nil {
		return st, err
	}
	// The executing circuits get their own exact template mix.
	running := genQueries(rngFor(seed, k, 6), st.stubs, st.templates, sz.Circuits, sz.ZipfSkew, 1)
	var res []optimizer.Result
	tr.do("optimizer.OptimizeBatch", -1, k, func() {
		res, err = optimizer.OptimizeBatch(st.env, running, optimizer.BatchOptions{Workers: runtime.NumCPU()})
	})
	if err != nil {
		return st, err
	}
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
	st.hb = st.net.StartHeartbeats(sz.Heartbeat, 0.05)
	tr.do("simtime.SleepWarm", -1, k, func() { st.clk.Sleep(sz.WarmSim) })
	return st, nil
}
