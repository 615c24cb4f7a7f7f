package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"github.com/hourglass/sbon/internal/query"
	"github.com/hourglass/sbon/internal/topology"
)

// Input generation lives here, outside the system under test: every
// workload derives its catalog, queries, drift schedule and crash plan
// from the seed through these functions, and hands the program only the
// results. Each input of each pooled instance draws from its own stream,
// so resizing one input never shifts another.

func rngFor(seed int64, instance, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(instance)*1009 + int64(stream)))
}

// streamSpec is one published source stream.
type streamSpec struct {
	Producer topology.NodeID
	RateKBs  float64
}

// catalogSpec is the statistics catalog the workload publishes.
type catalogSpec struct {
	Streams []streamSpec
	// PairSel[i][j] (i<j) is the join selectivity of streams i and j.
	PairSel [][]float64
}

// genCatalog places n streams on distinct stub nodes. Rates and
// selectivities are stratified over their ranges (one draw per stratum,
// shuffled), so the population's totals vary little from seed to seed
// while every individual value still comes from the seed.
func genCatalog(rng *rand.Rand, stubs []topology.NodeID, n int) catalogSpec {
	rates := stratified(rng, n, 50, 300)
	perm := rng.Perm(len(stubs))
	c := catalogSpec{Streams: make([]streamSpec, n), PairSel: make([][]float64, n)}
	for i := range c.Streams {
		c.Streams[i] = streamSpec{Producer: stubs[perm[i%len(perm)]], RateKBs: rates[i]}
	}
	sels := stratified(rng, n*(n-1)/2, 0.5, 1.1)
	k := 0
	for i := range c.PairSel {
		c.PairSel[i] = make([]float64, n)
		for j := i + 1; j < n; j++ {
			c.PairSel[i][j] = sels[k]
			k++
		}
	}
	return c
}

// stratified returns n values in [lo, hi), one uniform draw from each of
// n equal strata, in random order.
func stratified(rng *rand.Rand, n int, lo, hi float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*(float64(i)+rng.Float64())/float64(n)
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// directUsage is Σ rate·latency of shipping every stream q reads
// straight from its producer to q's consumer.
func (c catalogSpec) directUsage(q query.Query, topo *topology.Topology) float64 {
	sum := 0.0
	for _, s := range q.Streams {
		st := c.Streams[s]
		sum += st.RateKBs * topo.Latency(st.Producer, q.Consumer)
	}
	return sum
}

// build materializes the spec as the optimizer's statistics catalog.
func (c catalogSpec) build() (*query.Catalog, error) {
	cat, err := query.NewCatalog(0.8)
	if err != nil {
		return nil, err
	}
	for i, s := range c.Streams {
		if err := cat.AddStream(query.StreamID(i), s.Producer, s.RateKBs); err != nil {
			return nil, err
		}
	}
	for i := range c.PairSel {
		for j := i + 1; j < len(c.PairSel); j++ {
			if err := cat.SetPairSelectivity(query.StreamID(i), query.StreamID(j), c.PairSel[i][j]); err != nil {
				return nil, err
			}
		}
	}
	return cat, nil
}

// genTemplates draws n distinct stream sets for queries drawn with
// popularity weight 1/(r+1)^skew for rank r. Widths cycle through
// [minW, maxW] by rank, and each template takes the streams that carry
// the least popularity so far (ties broken at random), so every stream
// ends up with about the same share of the traffic. Without this
// balancing, whether the hottest templates happen to join the fastest
// streams decides the workload's weight, and seeds differ by a third.
func genTemplates(rng *rand.Rand, streams, n, minW, maxW int, skew float64) ([][]query.StreamID, error) {
	if maxW > streams {
		return nil, fmt.Errorf("templates: width %d over %d streams", maxW, streams)
	}
	load := make([]float64, streams)
	seen := map[string]bool{}
	out := make([][]query.StreamID, 0, n)
	for r := 0; r < n; r++ {
		w := minW + r%(maxW-minW+1)
		order := rng.Perm(streams)
		sort.SliceStable(order, func(i, j int) bool { return load[order[i]] < load[order[j]] })
		// Take the w least-loaded streams; on a duplicate set, swap the
		// last pick for the next candidate.
		pick := append([]int(nil), order[:w]...)
		next := w
		for {
			set := append([]int(nil), pick...)
			sort.Ints(set)
			key := fmt.Sprint(set)
			if !seen[key] {
				seen[key] = true
				pick = set
				break
			}
			if next == streams {
				return nil, fmt.Errorf("templates: %d distinct sets of width %d-%d over %d streams not found", n, minW, maxW, streams)
			}
			pick[w-1] = order[next]
			next++
		}
		weight := math.Pow(float64(r+1), -skew)
		set := make([]query.StreamID, w)
		for i, s := range pick {
			set[i] = query.StreamID(s)
			load[s] += weight
		}
		out = append(out, set)
	}
	return out, nil
}

// genQueries draws n queries over the templates, template r carrying
// weight 1/(r+1)^skew. Each template appears its quota of times (largest
// remainder), in random order, so the mix does not vary with the seed;
// consumers are uniformly random stub nodes. IDs start at baseID.
func genQueries(rng *rand.Rand, stubs []topology.NodeID, templates [][]query.StreamID, n int, skew float64, baseID int) []query.Query {
	weights := make([]float64, len(templates))
	total := 0.0
	for r := range weights {
		weights[r] = math.Pow(float64(r+1), -skew)
		total += weights[r]
	}
	type share struct {
		t    int
		frac float64
	}
	seq := make([]int, 0, n)
	var rest []share
	for r, w := range weights {
		exact := float64(n) * w / total
		for k := 0; k < int(exact); k++ {
			seq = append(seq, r)
		}
		rest = append(rest, share{r, exact - math.Floor(exact)})
	}
	sort.SliceStable(rest, func(i, j int) bool { return rest[i].frac > rest[j].frac })
	for i := 0; len(seq) < n; i++ {
		seq = append(seq, rest[i].t)
	}
	rng.Shuffle(n, func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	out := make([]query.Query, n)
	for i, r := range seq {
		out[i] = query.Query{
			ID:       query.QueryID(baseID + i),
			Consumer: stubs[rng.Intn(len(stubs))],
			Streams:  append([]query.StreamID(nil), templates[r]...),
		}
	}
	return out
}

// loadChange sets one node's background load.
type loadChange struct {
	Node topology.NodeID
	Load float64
}

// genDrift draws steps of frac·nodes fresh background loads in [0, 0.4)
// — the range the environment assigns at construction.
func genDrift(rng *rand.Rand, nodes, steps int, frac float64) [][]loadChange {
	per := int(frac*float64(nodes) + 0.5)
	if per < 1 {
		per = 1
	}
	out := make([][]loadChange, steps)
	for s := range out {
		out[s] = make([]loadChange, per)
		for i := range out[s] {
			out[s][i] = loadChange{Node: topology.NodeID(rng.Intn(nodes)), Load: 0.4 * rng.Float64()}
		}
	}
	return out
}

// crashSpec is one scheduled unannounced node death, relative to the
// start of the fault plan.
type crashSpec struct {
	Node topology.NodeID
	At   time.Duration
}

// genCrashes picks count victims — half from opHosts, the rest from
// ambient (both already exclude every circuit endpoint) — and staggers
// them evenly over [start, start+spread].
func genCrashes(rng *rand.Rand, opHosts, ambient []topology.NodeID, count int, start, spread time.Duration) ([]crashSpec, error) {
	ops := append([]topology.NodeID(nil), opHosts...)
	amb := append([]topology.NodeID(nil), ambient...)
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	rng.Shuffle(len(amb), func(i, j int) { amb[i], amb[j] = amb[j], amb[i] })
	fromOps := count / 2
	if fromOps > len(ops) {
		fromOps = len(ops)
	}
	if count-fromOps > len(amb) {
		return nil, fmt.Errorf("crash plan: %d victims wanted, %d operator hosts and %d ambient nodes available", count, len(ops), len(amb))
	}
	victims := append(ops[:fromOps:fromOps], amb[:count-fromOps]...)
	rng.Shuffle(len(victims), func(i, j int) { victims[i], victims[j] = victims[j], victims[i] })
	out := make([]crashSpec, len(victims))
	for i, n := range victims {
		at := start
		if len(victims) > 1 {
			at += time.Duration(int64(spread) * int64(i) / int64(len(victims)-1))
		}
		out[i] = crashSpec{Node: n, At: at}
	}
	return out, nil
}
