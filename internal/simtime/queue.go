package simtime

import (
	"container/heap"
	"time"
)

// event is one scheduled callback on the virtual timeline. It is also
// the Timer that scheduling hands back: Stop cancels it through c.
//
// Field order keeps the struct at 48 bytes, one allocation size class
// (TestEventSize pins it): one event is allocated per overlay message
// and heartbeat.
type event struct {
	at time.Duration // virtual offset from the epoch
	// seq is the packed event key: (origin domain + 1) in the high
	// bits, the origin's schedule counter in the low domainSeqBits.
	// It breaks ties at equal timestamps — control events first, then
	// node domains in id order, FIFO within a domain — identically in
	// single-queue and sharded execution.
	seq uint64
	fn  func()

	// c is the clock the event was scheduled on (nil for events that
	// queue tests build by hand).
	c *VirtualClock

	// idx is the event's position inside its current container (the
	// reference heap, the wheel's ready heap, or a wheel bucket slice);
	// -1 once fired or stopped. The queue implementations keep it
	// current so removal is O(log n) / O(1) instead of a scan.
	idx int32

	// lane is the shard queue the event lives in, or -1 for the
	// control queue (and for every event in single-queue mode).
	lane int32

	// level/slot locate a wheel-resident event: level == readyLevel
	// means the event sits in the wheel's exact ready heap, otherwise
	// buckets[level][slot]. The reference heapQueue ignores both.
	level int8
	slot  uint8
}

// before reports whether ev orders strictly before o: earlier
// timestamp, then smaller key. Keys are unique, so this is a total
// order on pending events.
func (ev *event) before(o *event) bool {
	return ev.at < o.at || ev.at == o.at && ev.seq < o.seq
}

// Stop cancels the pending event, reporting whether it had not yet
// fired. Stop is a control-context operation: calling it from inside a
// parallel window panics (shard workers own their queues then).
func (ev *event) Stop() bool {
	if ev.c.inWindow.Load() {
		panic("simtime: Timer.Stop inside a parallel window")
	}
	ev.c.mu.Lock()
	defer ev.c.mu.Unlock()
	return ev.c.removeLocked(ev)
}

// eventQueue is the scheduler's priority-queue contract: push pending
// events, pop the exact global (at, seq) minimum, remove a pending
// event by handle. Two implementations exist — heapQueue, the original
// binary heap kept as the semantics reference, and wheelQueue, the
// hierarchical timer wheel used by default. The VirtualClock holds its
// mutex around every call, so implementations need no locking of their
// own.
type eventQueue interface {
	// push enqueues a pending event (at and seq already assigned).
	push(ev *event)
	// popMin removes and returns the event with the smallest (at, seq).
	// Callers guarantee len() > 0.
	popMin() *event
	// peekMin returns the event popMin would return without removing
	// it. Callers guarantee len() > 0.
	peekMin() *event
	// remove cancels a pending event, reporting whether it was still
	// queued (false if already fired or removed).
	remove(ev *event) bool
	// len returns the number of pending events.
	len() int
}

// eventHeap orders events by (at, seq): earliest first, FIFO within one
// virtual instant. It backs both the reference queue, through
// container/heap, and the wheel's ready set, through the typed
// readyPush/readyPop/readyRemove below.
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = int32(i)
	h[j].idx = int32(j)
}

func (h *eventHeap) Push(x any) {
	ev := x.(*event)
	ev.idx = int32(len(*h))
	*h = append(*h, ev)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.idx = -1
	*h = old[:n-1]
	return ev
}

// heapQueue is the original binary-heap scheduler queue. It survives as
// the reference implementation: the wheel's differential test replays
// identical schedules against both and demands identical fire orders,
// and NewVirtualReference exposes it for benchmarks.
type heapQueue struct {
	h eventHeap
}

func (q *heapQueue) push(ev *event) { heap.Push(&q.h, ev) }

func (q *heapQueue) popMin() *event { return heap.Pop(&q.h).(*event) }

func (q *heapQueue) peekMin() *event { return q.h[0] }

func (q *heapQueue) remove(ev *event) bool {
	if ev.idx < 0 {
		return false
	}
	heap.Remove(&q.h, int(ev.idx))
	ev.idx = -1
	return true
}

func (q *heapQueue) len() int { return len(q.h) }

// The wheel's ready set is the hot path of every clock step, so it
// sifts typed *event slots directly instead of going through
// container/heap's interface calls. Sifting moves a hole rather than
// swapping, writing each displaced event (and its idx) once. Because
// (at, seq) keys are unique, any correct heap pops the same sequence as
// the reference heapQueue.

// readyPush inserts ev.
func readyPush(h *eventHeap, ev *event) {
	*h = append(*h, ev)
	h.up(len(*h)-1, ev)
}

// readyPop removes and returns the minimum; h must be non-empty.
func readyPop(h *eventHeap) *event {
	old := *h
	n := len(old) - 1
	ev := old[0]
	last := old[n]
	old[n] = nil
	*h = old[:n]
	if n > 0 {
		h.down(0, last)
	}
	ev.idx = -1
	return ev
}

// readyRemove deletes the event at index i. The event moved into the
// hole may belong above or below it, so it sifts whichever way applies.
func readyRemove(h *eventHeap, i int) {
	old := *h
	n := len(old) - 1
	ev := old[i]
	last := old[n]
	old[n] = nil
	*h = old[:n]
	if i != n && !h.down(i, last) {
		h.up(i, last)
	}
	ev.idx = -1
}

// up places ev at hole i, moving it toward the root past larger
// parents.
func (h eventHeap) up(i int, ev *event) {
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(h[p]) {
			break
		}
		h[i] = h[p]
		h[i].idx = int32(i)
		i = p
	}
	h[i] = ev
	ev.idx = int32(i)
}

// down places ev at hole i, moving it toward the leaves past smaller
// children, and reports whether it moved.
func (h eventHeap) down(i int, ev *event) bool {
	i0, n := i, len(h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(ev) {
			break
		}
		h[i] = h[c]
		h[i].idx = int32(i)
		i = c
	}
	h[i] = ev
	ev.idx = int32(i)
	return i > i0
}
