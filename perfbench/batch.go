package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/hourglass/sbon/internal/optimizer"
)

// batchSize shapes the batch-16k workload.
type batchSize struct {
	scaleSize
	CallQueries int // queries per OptimizeBatch call: one operation
	Pool        int // distinct timed queries; calls walk the pool in order
	ColdQueries int // the untimed cold pass that fills the plan cache
	Calls       int // timed calls per instance
	UsageCalls  int // leading timed calls whose circuits usage_ratio covers
	// Instances independent overlays run one after another and pool
	// their calls, as in admission.
	Instances int
}

// batchQueriesPerSecond sizes the timed phase: about this many batch
// queries are planned per wall second on the reference host (2-core
// Xeon, two workers).
const batchQueriesPerSecond = 33000

func batchSizeFor(seconds int) batchSize {
	const instances, callQ = 2, 300
	return batchSize{
		scaleSize:   scale16k,
		CallQueries: callQ,
		Pool:        100 * callQ,
		ColdQueries: 15000,
		Calls:       blocksFor(seconds, 1.0/instances, batchQueriesPerSecond/callQ) * opBlock,
		UsageCalls:  10,
		Instances:   instances,
	}
}

func runBatch(seed int64, seconds int, tr *tracer) (*outcome, error) {
	return batch(seed, batchSizeFor(seconds), tr)
}

// batch is the read-only parallel optimizer at scale: a stream of
// OptimizeBatch calls, workers = nproc, over a frozen snapshot of the
// 16k-node overlay with a persistent plan cache. Nothing is deployed,
// so neither the registry nor the data plane changes.
func batch(seed int64, sz batchSize, tr *tracer) (*outcome, error) {
	out := newOutcome()
	var setupTimes []time.Duration
	var ops opLog
	var planned, hits, misses int
	var ratio, relErr float64
	workers := runtime.NumCPU()
	for k := 0; k < sz.Instances; k++ {
		if k > 0 {
			runtime.GC()
		}
		t0 := time.Now()
		st, err := scaleSetup(seed, k, sz.scaleSize, tr)
		if st != nil {
			// The environment is built; the batch never advances the
			// clock, so the ticker can stop here.
			st.close()
		}
		if err != nil {
			return nil, err
		}
		all := genQueries(rngFor(seed, k, 4), st.stubs, st.templates, sz.ColdQueries+sz.Pool, sz.ZipfSkew, 1)
		cold, pool := all[:sz.ColdQueries], all[sz.ColdQueries:]
		cache := optimizer.NewPlanCache()
		tr.do("optimizer.OptimizeBatchCold", -1, k, func() {
			_, err = optimizer.OptimizeBatch(st.env, cold, optimizer.BatchOptions{Workers: workers, Cache: cache})
		})
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(t0))
		relErr += st.env.EmbeddingQuality.MedianRelErr / float64(sz.Instances)
		hits0, misses0 := cache.Stats()

		var kept []*optimizer.Circuit
		phase := startTimed()
		root := tr.begin("bench.batch", -1, k)
		ops.start()
		for c := 0; c < sz.Calls; c++ {
			from := (c * sz.CallQueries) % len(pool)
			queries := pool[from : from+sz.CallQueries]
			var res []optimizer.Result
			t1 := time.Now()
			tr.do("optimizer.OptimizeBatch", root, c, func() {
				res, err = optimizer.OptimizeBatch(st.env, queries, optimizer.BatchOptions{Workers: workers, Cache: cache})
			})
			ops.add(time.Since(t1))
			if err != nil {
				return nil, fmt.Errorf("batch call %d: %w", c, err)
			}
			for i := range res {
				if res[i].Circuit != nil && res[i].Circuit.Validate() == nil {
					planned++
					if c < sz.UsageCalls {
						kept = append(kept, res[i].Circuit)
					}
				}
			}
		}
		tr.end(root)
		wall, mem := phase.stop()
		out.addTimed(root, wall, mem)
		hits1, misses1 := cache.Stats()
		hits += hits1 - hits0
		misses += misses1 - misses0
		u := circuitsUsage(kept, st.spec, st.topo)
		ratio += u.ratio() / float64(sz.Instances)
		out.det[fmt.Sprintf("usage%d", k)] = u.placed
	}

	attempted := sz.Instances * sz.Calls * sz.CallQueries
	out.attempted, out.failed = attempted, attempted-planned
	out.e2e["setup_s"] = metric{setupMedian(setupTimes), "s"}
	if err := ops.report(out); err != nil {
		return nil, err
	}
	out.e2e["ok_frac"] = metric{float64(planned) / float64(attempted), "ratio"}
	out.e2e["usage_ratio"] = metric{ratio, "ratio"}
	fmt.Printf("batch-16k: %d instances; %d calls of %d queries each on %d workers (%d blocks of %d calls, %d beyond each block's p99); cache hit fraction %.3f\n",
		sz.Instances, sz.Calls, sz.CallQueries, workers, len(ops.blockQPS), opBlock, opBlock/100, float64(hits)/float64(hits+misses))

	out.det["usage_ratio"] = ratio
	out.det["planned"] = float64(planned)

	l := out.layer
	l["vivaldi.rel_err_p50"] = relErr
	l["optimizer.batch_cache_hit_frac"] = float64(hits) / float64(hits+misses)
	if tr != nil {
		l["topology.build_s"] = tr.total("topology.Generate")
		l["vivaldi.embed_s"] = tr.total("vivaldi.Ticker")
		l["optimizer.env_s"] = tr.total("optimizer.NewEnvFromCoords")
		l["optimizer.batch_cold_s"] = tr.total("optimizer.OptimizeBatchCold")
		l["optimizer.batch_s"] = tr.total("optimizer.OptimizeBatch")
	}
	return out, nil
}
