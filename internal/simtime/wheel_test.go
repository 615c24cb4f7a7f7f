package simtime

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// Queue programs are byte strings, so the differential check below is
// shared by the seeded test and the native fuzz target. Each operation
// is one opcode byte whose low two bits select the kind, followed for
// pushes and removes by a little-endian uint16 argument; a truncated
// argument reads as zero.
const (
	opPush        = iota // bits 2-3 pick the delay scale, the argument its magnitude
	opPop                // pop the minimum from both queues
	opRemove             // cancel the argument-th pending event
	opRemoveReady        // cancel the argument-th event resident in the wheel's ready heap
)

// programDelay decodes a push's delay: sub-tick clustering, then
// microsecond, millisecond and second scales, so pushes reach every
// wheel level.
func programDelay(scale byte, v uint16) time.Duration {
	switch scale & 3 {
	case 0:
		return time.Duration(v%3) * 500 * time.Nanosecond
	case 1:
		return time.Duration(v%1000) * time.Microsecond
	case 2:
		return time.Duration(v%1000) * time.Millisecond
	default:
		return time.Duration(v%3600) * time.Second
	}
}

// randomProgram encodes ops random operations in the mix
// TestWheelQueueDifferential has always used: half pushes over the four
// delay scales, 30% pops, 20% removes (one in four of those aimed at a
// ready-resident event).
func randomProgram(rng *rand.Rand, ops int) []byte {
	var p []byte
	arg := func() { v := rng.Intn(1 << 16); p = append(p, byte(v), byte(v>>8)) }
	for i := 0; i < ops; i++ {
		switch op := rng.Intn(10); {
		case op < 5:
			p = append(p, opPush|byte(rng.Intn(4))<<2)
			arg()
		case op < 8:
			p = append(p, opPop)
		default:
			if rng.Intn(4) == 0 {
				p = append(p, opRemoveReady)
			} else {
				p = append(p, opRemove)
			}
			arg()
		}
	}
	return p
}

// checkWheelMatchesHeap runs program against the wheel and the
// reference heap and demands the exact same (at, seq) pop order, equal
// lengths after every operation, and a full drain at the end. This is
// the core exactness property: the wheel is not an approximation of the
// heap, it IS the heap's order at lower cost.
func checkWheelMatchesHeap(t *testing.T, program []byte) {
	heapQ := &heapQueue{}
	wheelQ := newWheelQueue()

	type pair struct{ h, w *event }
	var pending []pair
	var now time.Duration
	var seq uint64

	pop := func() {
		if heapQ.len() == 0 {
			return
		}
		h := heapQ.popMin()
		w := wheelQ.popMin()
		if h.at != w.at || h.seq != w.seq {
			t.Fatalf("pop mismatch: heap (%v, %d) vs wheel (%v, %d)", h.at, h.seq, w.at, w.seq)
		}
		if h.at > now {
			now = h.at
		}
		for i, p := range pending {
			if p.h == h {
				pending = append(pending[:i], pending[i+1:]...)
				break
			}
		}
	}
	remove := func(i int) {
		p := pending[i]
		if !heapQ.remove(p.h) || !wheelQ.remove(p.w) {
			t.Fatal("remove of pending event reported not queued")
		}
		if heapQ.remove(p.h) || wheelQ.remove(p.w) {
			t.Fatal("second remove reported still queued")
		}
		pending = append(pending[:i], pending[i+1:]...)
	}

	var ready []int
	for k := 0; k < len(program); {
		op := program[k]
		k++
		var arg uint16
		if op&3 != opPop {
			if k < len(program) {
				arg = uint16(program[k])
			}
			if k+1 < len(program) {
				arg |= uint16(program[k+1]) << 8
			}
			k += 2
		}
		switch op & 3 {
		case opPush:
			at := now + programDelay(op>>2, arg)
			h := &event{at: at, seq: seq}
			w := &event{at: at, seq: seq}
			seq++
			heapQ.push(h)
			wheelQ.push(w)
			pending = append(pending, pair{h, w})
		case opPop:
			pop()
		case opRemove:
			if len(pending) > 0 {
				remove(int(arg) % len(pending))
			}
		case opRemoveReady:
			ready = ready[:0]
			for i, p := range pending {
				if p.w.level == readyLevel {
					ready = append(ready, i)
				}
			}
			if len(ready) > 0 {
				remove(ready[int(arg)%len(ready)])
			}
		}
		if heapQ.len() != wheelQ.len() {
			t.Fatalf("len mismatch: heap %d wheel %d", heapQ.len(), wheelQ.len())
		}
	}
	for heapQ.len() > 0 {
		pop()
	}
	if wheelQ.len() != 0 {
		t.Fatalf("wheel retains %d events after drain", wheelQ.len())
	}
}

// TestWheelQueueDifferential replays long random programs — pushes with
// clustered and dispersed timestamps, removals of random pending and
// ready-resident events, pops — against the wheel and the reference
// heap.
func TestWheelQueueDifferential(t *testing.T) {
	for _, seed := range []int64{1, 2, 7, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			checkWheelMatchesHeap(t, randomProgram(rand.New(rand.NewSource(seed)), 20000))
		})
	}
}

// FuzzWheelMatchesHeap explores arbitrary queue programs. The seed
// corpus is short programs in TestWheelQueueDifferential's mix, so
// plain go test runs it as a regression test; go test -fuzz mutates
// from there.
func FuzzWheelMatchesHeap(f *testing.F) {
	for _, seed := range []int64{1, 2, 7, 42} {
		f.Add(randomProgram(rand.New(rand.NewSource(seed)), 400))
	}
	// After the pop, zero and half-tick delays stay below the horizon
	// and land in the ready heap; the remove then moves the heap's last
	// event into a hole above a larger parent, so readyRemove must sift
	// it up.
	f.Add([]byte{
		opPush | 1<<2, 5, 0, opPop,
		opPush, 1, 0, opPush, 0, 0, opPush, 0, 0, opPush, 1, 0,
		opPush, 1, 0, opPush, 1, 0, opPush, 0, 0,
		opRemoveReady, 3, 0,
	})
	f.Fuzz(checkWheelMatchesHeap)
}

// clockScript drives one VirtualClock through a deterministic
// pseudo-random workload covering the full scheduling surface —
// AfterFunc fires, timer Stop (both successful and too-late), Sleep,
// SleepOrDone won by the timer, and SleepOrDone cancelled via Signal —
// and returns the observed event log. Every log line embeds the virtual
// timestamp, so two clocks agree only if their fire orders are
// identical down to (timestamp, seq) ties.
func clockScript(clk *VirtualClock, seed int64) []string {
	var mu sync.Mutex
	var log []string
	logf := func(format string, args ...any) {
		mu.Lock()
		log = append(log, fmt.Sprintf("%d "+format, append([]any{clk.Now().UnixNano()}, args...)...))
		mu.Unlock()
	}

	rng := rand.New(rand.NewSource(seed))
	release := clk.Drive()
	defer release()

	var timers []Timer
	for i := 0; i < 400; i++ {
		id := i
		switch rng.Intn(6) {
		case 0, 1: // schedule a fire
			d := time.Duration(rng.Intn(5000)) * time.Microsecond
			timers = append(timers, clk.AfterFunc(d, func() { logf("fire %d", id) }))
		case 2: // stop a random earlier timer
			if len(timers) > 0 {
				j := rng.Intn(len(timers))
				logf("stop %d = %v", j, timers[j].Stop())
			}
		case 3: // plain sleep
			clk.Sleep(time.Duration(rng.Intn(2000)) * time.Microsecond)
			logf("slept %d", id)
		case 4: // SleepOrDone won by the timer (signal arrives later)
			ch := make(chan struct{})
			clk.AfterFunc(time.Duration(1500+rng.Intn(500))*time.Microsecond, func() { clk.Signal(ch) })
			got := clk.SleepOrDone(time.Duration(rng.Intn(1000))*time.Microsecond, ch)
			logf("sod-timer %d = %v", id, got)
		default: // SleepOrDone cancelled by Signal
			ch := make(chan struct{})
			clk.AfterFunc(time.Duration(rng.Intn(500))*time.Microsecond, func() { clk.Signal(ch) })
			got := clk.SleepOrDone(time.Duration(1000+rng.Intn(1000))*time.Microsecond, ch)
			logf("sod-signal %d = %v", id, got)
		}
	}
	// Drain whatever is still pending so late fires are compared too.
	clk.Sleep(10 * time.Second)
	logf("done pending=%d", clk.PendingEvents())
	return log
}

// TestWheelClockDifferential runs the same seeded scheduling script on
// a wheel-backed clock and on the reference heap-backed clock and
// requires byte-identical event logs — the end-to-end determinism
// guarantee the bit-identity experiment tests (X8/X11/X16) build on.
func TestWheelClockDifferential(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		wheelClk := NewVirtual()
		wheelLog := clockScript(wheelClk, seed)
		wheelClk.Stop()

		heapClk := NewVirtualReference()
		heapLog := clockScript(heapClk, seed)
		heapClk.Stop()

		if len(wheelLog) != len(heapLog) {
			t.Fatalf("seed %d: log length wheel=%d heap=%d", seed, len(wheelLog), len(heapLog))
		}
		for i := range wheelLog {
			if wheelLog[i] != heapLog[i] {
				t.Fatalf("seed %d: log[%d] differs:\n  wheel: %s\n  heap:  %s", seed, i, wheelLog[i], heapLog[i])
			}
		}
	}
}

// TestWheelFarFuture exercises the top wheel levels: events hours and
// days of virtual time out must still fire in exact order after
// cascading down through every level.
func TestWheelFarFuture(t *testing.T) {
	q := newWheelQueue()
	ref := &heapQueue{}
	delays := []time.Duration{
		0, time.Nanosecond, time.Microsecond, 65 * time.Microsecond,
		5 * time.Millisecond, 4097 * time.Millisecond, time.Second,
		17 * time.Minute, 3 * time.Hour, 40 * 24 * time.Hour,
	}
	var seq uint64
	for _, rep := range []time.Duration{1, 3} {
		for _, d := range delays {
			at := d * rep
			q.push(&event{at: at, seq: seq})
			ref.push(&event{at: at, seq: seq})
			seq++
		}
	}
	for ref.len() > 0 {
		h, w := ref.popMin(), q.popMin()
		if h.at != w.at || h.seq != w.seq {
			t.Fatalf("far-future order mismatch: heap (%v,%d) wheel (%v,%d)", h.at, h.seq, w.at, w.seq)
		}
	}
}

// benchQueue measures raw schedule+fire throughput with `pending`
// events resident, the regime the 16k-node heartbeat scenario puts the
// kernel in. Each iteration pushes one event and pops the minimum, so
// the queue stays at the target size while both code paths are
// exercised.
func benchQueue(b *testing.B, q eventQueue, pending int) {
	rng := rand.New(rand.NewSource(1))
	var now time.Duration
	var seq uint64
	push := func() {
		q.push(&event{at: now + time.Duration(rng.Intn(10_000_000))*time.Microsecond, seq: seq})
		seq++
	}
	for i := 0; i < pending; i++ {
		push()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		push()
		ev := q.popMin()
		if ev.at > now {
			now = ev.at
		}
	}
}

func BenchmarkWheelQueue100kPending(b *testing.B) { benchQueue(b, newWheelQueue(), 100_000) }
func BenchmarkHeapQueue100kPending(b *testing.B)  { benchQueue(b, &heapQueue{}, 100_000) }
func BenchmarkWheelQueue1kPending(b *testing.B)   { benchQueue(b, newWheelQueue(), 1_000) }
func BenchmarkHeapQueue1kPending(b *testing.B)    { benchQueue(b, &heapQueue{}, 1_000) }

// TestReadyHeapMatchesReference drives the wheel's typed ready heap and
// the container/heap reference with the same random pushes, pops and
// removes at arbitrary positions. Random keys make removals that must
// sift up as common as ones that sift down.
func TestReadyHeapMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var ready eventHeap
	ref := &heapQueue{}
	type pair struct{ r, h *event }
	var pending []pair
	for i := 0; i < 20000; i++ {
		switch op := rng.Intn(10); {
		case op < 5:
			at := time.Duration(rng.Intn(1000))
			r := &event{at: at, seq: uint64(i)}
			h := &event{at: at, seq: uint64(i)}
			readyPush(&ready, r)
			ref.push(h)
			pending = append(pending, pair{r, h})
		case op < 8:
			if len(ready) == 0 {
				continue
			}
			r, h := readyPop(&ready), ref.popMin()
			if r.at != h.at || r.seq != h.seq || r.idx != -1 {
				t.Fatalf("op %d: pop (%v,%d,idx %d), reference (%v,%d)", i, r.at, r.seq, r.idx, h.at, h.seq)
			}
			for k, p := range pending {
				if p.r == r {
					pending = append(pending[:k], pending[k+1:]...)
					break
				}
			}
		default:
			if len(pending) == 0 {
				continue
			}
			k := rng.Intn(len(pending))
			p := pending[k]
			readyRemove(&ready, int(p.r.idx))
			ref.remove(p.h)
			if p.r.idx != -1 {
				t.Fatalf("op %d: removed event keeps idx %d", i, p.r.idx)
			}
			pending = append(pending[:k], pending[k+1:]...)
		}
		for k, ev := range ready {
			if int(ev.idx) != k {
				t.Fatalf("op %d: ready[%d].idx = %d", i, k, ev.idx)
			}
		}
	}
}

// TestReadyHeapAllocatesNothing guards the typed ready heap: once its
// backing array has grown, push, pop and remove never allocate.
func TestReadyHeapAllocatesNothing(t *testing.T) {
	evs := make([]*event, 64)
	for i := range evs {
		evs[i] = &event{at: time.Duration((i * 37) % 64), seq: uint64(i)}
	}
	ready := make(eventHeap, 0, len(evs))
	cycle := func() {
		for _, ev := range evs {
			readyPush(&ready, ev)
		}
		readyRemove(&ready, len(ready)/2)
		readyRemove(&ready, len(ready)-1)
		for len(ready) > 0 {
			readyPop(&ready)
		}
	}
	if a := testing.AllocsPerRun(100, cycle); a != 0 {
		t.Fatalf("ready heap cycle allocated %v times, want 0", a)
	}
}

// TestEventSize pins the event at 48 bytes, one allocation size class:
// one event is allocated per overlay message and heartbeat, and the
// event doubles as its own Timer handle.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 48 {
		t.Fatalf("event is %d bytes, want 48", got)
	}
}
