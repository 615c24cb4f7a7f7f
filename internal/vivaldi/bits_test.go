package vivaldi

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/hourglass/sbon/internal/simtime"
)

// bitsLatency is a fixed, non-embeddable latency matrix: 2-D Euclidean
// points plus symmetric multiplicative noise, so error estimates stay
// away from the floor and every update branch keeps firing.
func bitsLatency(n int) LatencyFunc {
	rng := rand.New(rand.NewSource(99))
	pts := make([][2]float64, n)
	for i := range pts {
		pts[i] = [2]float64{rng.Float64() * 200, rng.Float64() * 200}
	}
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx, dy := pts[i][0]-pts[j][0], pts[i][1]-pts[j][1]
			l := (1 + math.Sqrt(dx*dx+dy*dy)) * (0.8 + 0.4*rng.Float64())
			m[i][j], m[j][i] = l, l
		}
	}
	return func(i, j int) float64 { return m[i][j] }
}

// embeddingHash folds the exact bit patterns of every coordinate and
// error estimate into one FNV-1a value.
func embeddingHash(e *Embedding) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v float64) {
		u := math.Float64bits(v)
		for k := range b {
			b[k] = byte(u >> (8 * k))
		}
		h.Write(b[:])
	}
	for i, c := range e.Coords {
		for _, v := range c {
			put(v)
		}
		put(e.Errors[i])
	}
	return h.Sum64()
}

// fmaSink keeps fmaFused's operands opaque to constant folding.
var fmaSink = [3]float64{1 + 1.0/(1<<30), 1 - 1.0/(1<<30), -1}

// fmaFused reports whether this build contracts x*y+z into a fused
// multiply-add. The Go spec allows it (the compiler does it on arm64,
// ppc64le and s390x), and Coord.Distance's sum of squares is such an
// expression, so the pinned hashes below only hold where it does not.
func fmaFused() bool {
	x, y, z := fmaSink[0], fmaSink[1], fmaSink[2]
	return x*y+z != float64(x*y)+z
}

// TestEmbeddingBitsPinned pins the exact embeddings Embed and Ticker
// produce: any change to the update arithmetic that moves a single bit
// of a coordinate or an error estimate fails here. Round 1 starts every
// node at the origin, so the random-direction branch is covered too.
// The hashes were recorded before Node.Update moved coordinates in
// place and must never change.
func TestEmbeddingBitsPinned(t *testing.T) {
	if fmaFused() {
		t.Skip("this build fuses multiply-adds; TestUpdateMatchesReference covers bit identity here")
	}
	const n = 64
	lat := bitsLatency(n)
	for _, tc := range []struct {
		dims int
		want uint64
	}{{2, 0x77860af94f188982}, {3, 0xeebb7c72ba4ce91e}, {5, 0x2047e1798d492b12}} {
		cfg := DefaultConfig()
		cfg.Dims = tc.dims
		emb, err := Embed(n, lat, cfg, 30, 4, rand.New(rand.NewSource(int64(tc.dims))))
		if err != nil {
			t.Fatal(err)
		}
		if got := embeddingHash(emb); got != tc.want {
			t.Errorf("Embed dims=%d: hash %#x, want %#x", tc.dims, got, tc.want)
		}
	}

	clk := simtime.NewVirtual()
	defer clk.Drive()()
	tk, err := NewTicker(n, lat, DefaultConfig(), 4, time.Second, clk, rand.New(rand.NewSource(17)))
	if err != nil {
		t.Fatal(err)
	}
	tk.Start()
	clk.Sleep(25*time.Second + time.Millisecond)
	tk.Stop()
	if tk.Rounds() != 25 {
		t.Fatalf("ticker ran %d rounds, want 25", tk.Rounds())
	}
	if got, want := embeddingHash(tk.Embedding()), uint64(0x10b1a87aa1076296); got != want {
		t.Errorf("Ticker: hash %#x, want %#x", got, want)
	}
}

// referenceUpdate is the Vivaldi update rule written with the
// allocating Coord operations (Sub, Scale, Add), each of which stores,
// and therefore rounds, every intermediate vector component.
// Node.Update must agree with it bit for bit on every platform.
func referenceUpdate(n *Node, peer Coord, peerErr, rtt float64) {
	if rtt <= 0 {
		return
	}
	dist := n.coord.Distance(peer)
	w := n.err / (n.err + math.Max(peerErr, n.cfg.MinError))
	es := math.Abs(dist-rtt) / rtt
	alpha := n.cfg.CE * w
	n.err = es*alpha + n.err*(1-alpha)
	if n.err < n.cfg.MinError {
		n.err = n.cfg.MinError
	}
	delta := n.cfg.CC * w
	var dir Coord
	if dist > 1e-9 {
		dir = n.coord.Sub(peer).Scale(1 / dist)
	} else {
		dir = make(Coord, n.cfg.Dims)
		var norm float64
		for norm < 1e-9 {
			for i := range dir {
				dir[i] = n.rng.NormFloat64()
			}
			norm = dir.Norm()
		}
		dir = dir.Scale(1 / norm)
	}
	n.coord = n.coord.Add(dir.Scale(delta * (rtt - dist)))
}

// TestUpdateMatchesReference drives Node.Update and referenceUpdate
// through identical random sample streams — including coincident
// coordinates, which take the random-direction branch — and requires
// identical bits after every step.
func TestUpdateMatchesReference(t *testing.T) {
	for _, dims := range []int{1, 2, 3, 5} {
		cfg := DefaultConfig()
		cfg.Dims = dims
		got, _ := NewNode(cfg, rand.New(rand.NewSource(5)))
		want, _ := NewNode(cfg, rand.New(rand.NewSource(5)))
		rng := rand.New(rand.NewSource(int64(dims)))
		peer := make(Coord, dims)
		for step := 0; step < 5000; step++ {
			switch rng.Intn(8) {
			case 0: // coincident with the node
				copy(peer, got.coord)
			case 1: // near-coincident, just inside the tie threshold
				for i := range peer {
					peer[i] = got.coord[i] + 1e-12*rng.NormFloat64()
				}
			default:
				for i := range peer {
					peer[i] = got.coord[i] + 100*rng.NormFloat64()
				}
			}
			peerErr, rtt := rng.Float64(), 200*rng.Float64()
			got.Update(peer, peerErr, rtt)
			referenceUpdate(want, peer, peerErr, rtt)
			if math.Float64bits(got.err) != math.Float64bits(want.err) {
				t.Fatalf("dims=%d step %d: error %v, reference %v", dims, step, got.err, want.err)
			}
			for i := range got.coord {
				if math.Float64bits(got.coord[i]) != math.Float64bits(want.coord[i]) {
					t.Fatalf("dims=%d step %d: coord %v, reference %v", dims, step, got.coord, want.coord)
				}
			}
		}
	}
}

// TestUpdateAllocatesNothing guards the in-place coordinate update: an
// RTT sample against a distinct peer must not touch the heap.
func TestUpdateAllocatesNothing(t *testing.T) {
	n, _ := NewNode(DefaultConfig(), rand.New(rand.NewSource(1)))
	n.coord = Coord{3, 4}
	peer := Coord{40, -7}
	if a := testing.AllocsPerRun(1000, func() { n.Update(peer, 0.5, 30) }); a != 0 {
		t.Fatalf("Node.Update allocated %v times per call, want 0", a)
	}
}
