package main

import (
	"time"

	"github.com/hourglass/sbon/internal/optimizer"
	"github.com/hourglass/sbon/internal/query"
	"github.com/hourglass/sbon/internal/simtime"
	"github.com/hourglass/sbon/internal/topology"
	"github.com/hourglass/sbon/internal/vivaldi"
)

// scaleSize shapes the 16,400-node overlay that batch-16k and
// dataplane-16k both build.
type scaleSize struct {
	// Transit-stub shape: TransitDomains·TransitNodes transit nodes plus
	// TransitDomains·TransitNodes·StubsPerTransit·StubNodes stub nodes.
	TransitDomains, TransitNodes, StubsPerTransit, StubNodes int

	Streams   int
	Templates int
	ZipfSkew  float64

	TickerSamples int
	TickerEvery   time.Duration
	TickerWarm    int // gossip rounds before the environment is built
}

// scale16k is the X17-shaped overlay: 16 transit nodes, 1024 stub
// domains of 16 nodes.
var scale16k = scaleSize{
	TransitDomains: 4, TransitNodes: 4, StubsPerTransit: 64, StubNodes: 16,
	Streams:       64,
	Templates:     120,
	ZipfSkew:      0.8,
	TickerSamples: 4,
	TickerEvery:   200 * time.Millisecond,
	TickerWarm:    40,
}

// scaleState is one set-up of the large overlay: sparse latency,
// coordinates from the Vivaldi ticker on a virtual clock, and an
// environment built from them with oracle mapping (no DHT).
type scaleState struct {
	topo      *topology.Topology
	stubs     []topology.NodeID
	spec      catalogSpec
	templates [][]query.StreamID
	clk       *simtime.VirtualClock
	ticker    *vivaldi.Ticker
	env       *optimizer.Env
	release   func()
}

// close stops the ticker and the clock.
func (st *scaleState) close() {
	if st.ticker != nil {
		st.ticker.Stop()
		st.ticker = nil
	}
	if st.release != nil {
		st.release()
		st.release = nil
	}
}

func scaleSetup(seed int64, k int, sz scaleSize, tr *tracer) (*scaleState, error) {
	cfg := topology.DefaultConfig()
	cfg.TransitDomains, cfg.TransitNodes = sz.TransitDomains, sz.TransitNodes
	cfg.StubsPerTransit, cfg.StubNodes = sz.StubsPerTransit, sz.StubNodes
	st := &scaleState{}
	var err error
	tr.do("topology.Generate", -1, k, func() {
		if st.topo, err = topology.Generate(cfg, rngFor(seed, k, 1)); err == nil {
			err = st.topo.EnableSparseLatency()
		}
	})
	if err != nil {
		return nil, err
	}
	n := st.topo.NumNodes()
	st.stubs = st.topo.StubNodeIDs()
	st.spec = genCatalog(rngFor(seed, k, 2), st.stubs, sz.Streams)
	if st.templates, err = genTemplates(rngFor(seed, k, 3), sz.Streams, sz.Templates, 1, 3, sz.ZipfSkew); err != nil {
		return nil, err
	}
	cat, err := st.spec.build()
	if err != nil {
		return nil, err
	}

	// One virtual clock carries gossip rounds (and, on the data plane,
	// tuples and heartbeats).
	st.clk = simtime.NewVirtual()
	st.release = st.clk.Drive()
	tr.do("vivaldi.Ticker", -1, k, func() {
		st.ticker, err = vivaldi.NewTicker(n, func(i, j int) float64 {
			return st.topo.Latency(topology.NodeID(i), topology.NodeID(j))
		}, vivaldi.DefaultConfig(), sz.TickerSamples, sz.TickerEvery, st.clk, rngFor(seed, k, 5))
		if err == nil {
			st.ticker.Start()
			st.clk.Sleep(time.Duration(sz.TickerWarm) * sz.TickerEvery)
		}
	})
	if err != nil {
		return st, err
	}
	envCfg := optimizer.DefaultEnvConfig(seed)
	envCfg.UseDHT = false
	tr.do("optimizer.NewEnvFromCoords", -1, k, func() {
		st.env, err = optimizer.NewEnvFromCoords(st.topo, cat, envCfg, st.ticker.Embedding().Coords)
	})
	return st, err
}
