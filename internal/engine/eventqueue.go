package engine

import "math"

// This file is the O(log n) event core of the stepper: the indexed structures
// that replace the kernel's per-event linear passes over the alive set.
//
// Two indexed min-heaps cover the two completion-search regimes of the loop:
//
//   - keyHeap: the virtual-clock event queue over the virtual-service keys of
//     equal-share segments (see the virtual-clock notes in engine.go), ordered
//     by (key, task id) and reading both straight from the live slots.
//   - idxHeap: a heap over float64 keys it stores itself, used for the
//     delta-ratio eligibility bound of the virtual mode and for the
//     completion-quotient index of the fallback path.
//
// Both are addressed by live-slot number, so an update or removal by slot is
// O(log n) whatever the key stream, and both obey the determinism rule of the
// whole engine: every value they surface (a minimum key, a pop order) is a
// pure function of the (key, task-id) multiset they hold, never of their
// internal layout. A queue rebuilt from a snapshot therefore pops the same
// sequence as the queue that grew event by event — the property
// FuzzStepperSnapshotRoundTrip and FuzzEventQueueEquivalence both lean on.
//
// All storage is Runner scratch: pushes append into kept-capacity slices, so
// a warmed engine runs both structures without heap allocation, and Restore
// rebuilds them from the live slots without allocating either.

// QueueStats is the per-run counter pair recording which event core ran each
// policy event: the virtual-clock equal-share path (no policy invocation, the
// key heap or its naive reference) or the fallback path (policy invoked,
// the quotient heap or the naive min-scan). Their sum is Result.Events.
type QueueStats struct {
	// VirtualEvents counts events decided on the virtual-service clock.
	VirtualEvents int
	// FallbackEvents counts events decided by invoking the policy.
	FallbackEvents int
	// Transitions counts mode switches between the two paths (each switch
	// pays an O(alive) rebuild or materialization).
	Transitions int
}

// EventCore selects the data structures behind the stepper's completion
// search. The semantics of a run — every event time, allocation, metric and
// sink row — are identical under every core; only the asymptotics differ.
// CoreNaive is retained as the executable reference the equivalence fuzz
// target and the byte-identity tests compare CoreAuto against.
type EventCore int

const (
	// CoreAuto is the default: (key, id) slot heap on virtual segments,
	// indexed quotient heap on fallback segments.
	CoreAuto EventCore = iota
	// CoreNaive is the reference implementation: the same virtual-clock
	// semantics computed by linear scans.
	CoreNaive
)

// valid reports whether the value is a known core selector.
func (c EventCore) valid() bool { return c == CoreAuto || c == CoreNaive }

// String names the core for error messages and bench reports.
func (c EventCore) String() string {
	if c == CoreNaive {
		return "naive"
	}
	return "auto"
}

// idxHeap is an indexed binary min-heap over float64 keys, addressed by the
// live-slot number: update/remove by slot are O(log n) through the slot→node
// position index, and renumber keeps the index coherent across the kernel's
// swap-delete retirements. Ordering uses the key value only — every consumer
// wants the minimum VALUE (a dt or an eligibility bound), never an argmin
// tie-break, so ties cost nothing and determinism is free.
type idxHeap struct {
	valid bool
	heap  []int32   // node order: heap[0] holds the slot with the least key
	pos   []int32   // slot → node index, -1 when the slot is not queued
	key   []float64 // slot → key
}

// reset empties the heap and sizes the slot index for n slots.
func (h *idxHeap) reset(n int) {
	h.heap = h.heap[:0]
	h.pos = growInt32(h.pos, n)
	h.key = growFloat(h.key, n)
	for i := 0; i < n; i++ {
		h.pos[i] = -1
	}
	h.valid = true
}

// growInt32 returns s resized to length n, reusing its storage.
func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// growFloat returns s resized to length n, reusing its storage.
func growFloat(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// ensure grows the slot index to address slot (appends keep amortized O(1)).
func (h *idxHeap) ensure(slot int) {
	for len(h.pos) <= slot {
		h.pos = append(h.pos, -1)
		h.key = append(h.key, 0)
	}
}

// push inserts a new slot with the given key.
func (h *idxHeap) push(slot int, key float64) {
	h.ensure(slot)
	h.key[slot] = key
	h.pos[slot] = int32(len(h.heap))
	h.heap = append(h.heap, int32(slot))
	h.siftUp(len(h.heap) - 1)
}

// update changes the key of a queued slot (or inserts it if absent).
func (h *idxHeap) update(slot int, key float64) {
	h.ensure(slot)
	if h.pos[slot] < 0 {
		h.push(slot, key)
		return
	}
	old := h.key[slot]
	h.key[slot] = key
	i := int(h.pos[slot])
	if key < old {
		h.siftUp(i)
	} else if key > old {
		h.siftDown(i)
	}
}

// removeSlot deletes a slot from the heap; absent slots are a no-op.
func (h *idxHeap) removeSlot(slot int) {
	if slot >= len(h.pos) || h.pos[slot] < 0 {
		return
	}
	i := int(h.pos[slot])
	last := len(h.heap) - 1
	h.pos[slot] = -1
	if i != last {
		moved := h.heap[last]
		h.heap[i] = moved
		h.pos[moved] = int32(i)
		h.heap = h.heap[:last]
		h.siftDown(i)
		h.siftUp(int(h.pos[moved]))
		return
	}
	h.heap = h.heap[:last]
}

// renumber moves slot old's entry to slot new — the swap-delete fixup: the
// kernel just moved live[old] into live[new].
func (h *idxHeap) renumber(oldSlot, newSlot int) {
	if oldSlot >= len(h.pos) || h.pos[oldSlot] < 0 {
		return
	}
	i := h.pos[oldSlot]
	h.ensure(newSlot)
	h.key[newSlot] = h.key[oldSlot]
	h.pos[newSlot] = i
	h.pos[oldSlot] = -1
	h.heap[i] = int32(newSlot)
}

// holds reports whether the slot is queued under exactly this key.
func (h *idxHeap) holds(slot int, key float64) bool {
	return slot < len(h.pos) && h.pos[slot] >= 0 && h.key[slot] == key
}

// min returns the least key, or +Inf when the heap is empty.
func (h *idxHeap) min() float64 {
	if len(h.heap) == 0 {
		return math.Inf(1)
	}
	return h.key[h.heap[0]]
}

// rebuild re-heapifies from the keys slice (indexed by slot, length n) in
// O(n) — the bulk path for mode transitions, restores, and events where most
// keys changed at once.
func (h *idxHeap) rebuild(keys []float64) {
	n := len(keys)
	h.pos = growInt32(h.pos, n)
	h.key = growFloat(h.key, n)
	h.heap = h.heap[:0]
	for i := 0; i < n; i++ {
		h.key[i] = keys[i]
		h.pos[i] = int32(i)
		h.heap = append(h.heap, int32(i))
	}
	for i := n/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
	h.valid = true
}

func (h *idxHeap) siftUp(i int) {
	node := h.heap[i]
	k := h.key[node]
	for i > 0 {
		parent := (i - 1) / 2
		if h.key[h.heap[parent]] <= k {
			break
		}
		h.heap[i] = h.heap[parent]
		h.pos[h.heap[i]] = int32(i)
		i = parent
	}
	h.heap[i] = node
	h.pos[node] = int32(i)
}

func (h *idxHeap) siftDown(i int) {
	n := len(h.heap)
	node := h.heap[i]
	k := h.key[node]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h.key[h.heap[r]] < h.key[h.heap[c]] {
			c = r
		}
		if k <= h.key[h.heap[c]] {
			break
		}
		h.heap[i] = h.heap[c]
		h.pos[h.heap[i]] = int32(i)
		i = c
	}
	h.heap[i] = node
	h.pos[node] = int32(i)
}

// keyHeap is the virtual-clock event queue: an indexed binary min-heap over
// live-slot numbers, ordered by (live[s].key, live[s].id). It copies neither
// key nor id — both are read straight from the live slots, which is why every
// mutating method takes them — so it costs 8 bytes per slot (node order plus
// the slot → node index). Keys are static while queued (see the virtual-clock
// notes in engine.go), and renumber keeps the index coherent across the
// kernel's swap-delete retirements.
//
// Task ids are unique, so (key, id) is a strict total order over the queued
// slots and the head is the unique least pair: what the heap surfaces is a
// pure function of its contents, whatever the push/remove history or the
// rebuild that produced its layout.
type keyHeap struct {
	valid bool
	heap  []int32 // node order: heap[0] holds the (key, id)-least slot
	pos   []int32 // slot → node index
}

// keyLess orders two slots by (key, id).
func keyLess(live []liveTask, a, b int32) bool {
	ka, kb := live[a].key, live[b].key
	return ka < kb || (ka == kb && live[a].id < live[b].id)
}

// push queues a slot under its current key.
func (q *keyHeap) push(live []liveTask, slot int) {
	for len(q.pos) <= slot {
		q.pos = append(q.pos, 0)
	}
	q.heap = append(q.heap, int32(slot))
	q.siftUp(live, len(q.heap)-1)
}

// peekMin returns the slot holding the (key, id)-least entry, or ok=false on
// an empty queue.
func (q *keyHeap) peekMin() (slot int, ok bool) {
	if len(q.heap) == 0 {
		return 0, false
	}
	return int(q.heap[0]), true
}

// removeSlot deletes a queued slot. live must still hold every queued key.
func (q *keyHeap) removeSlot(live []liveTask, slot int) {
	i := int(q.pos[slot])
	last := len(q.heap) - 1
	moved := q.heap[last]
	q.heap = q.heap[:last]
	if i == last {
		return
	}
	q.heap[i] = moved
	q.pos[moved] = int32(i)
	q.siftDown(live, i)
	q.siftUp(live, int(q.pos[moved]))
}

// renumber moves slot old's node to slot new (the swap-delete fixup: the
// kernel just moved live[old] into live[new], key and id included).
func (q *keyHeap) renumber(oldSlot, newSlot int) {
	i := q.pos[oldSlot]
	q.pos[newSlot] = i
	q.heap[i] = int32(newSlot)
}

// rebuild bulk-loads the queue from every live slot in O(n) — the
// transition and restore path.
func (q *keyHeap) rebuild(live []liveTask) {
	n := len(live)
	q.pos = growInt32(q.pos, n)
	q.heap = q.heap[:0]
	for i := 0; i < n; i++ {
		q.heap = append(q.heap, int32(i))
		q.pos[i] = int32(i)
	}
	for i := n/2 - 1; i >= 0; i-- {
		q.siftDown(live, i)
	}
	q.valid = true
}

func (q *keyHeap) siftUp(live []liveTask, i int) {
	node := q.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !keyLess(live, node, q.heap[parent]) {
			break
		}
		q.heap[i] = q.heap[parent]
		q.pos[q.heap[i]] = int32(i)
		i = parent
	}
	q.heap[i] = node
	q.pos[node] = int32(i)
}

func (q *keyHeap) siftDown(live []liveTask, i int) {
	n := len(q.heap)
	node := q.heap[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && keyLess(live, q.heap[r], q.heap[c]) {
			c = r
		}
		if !keyLess(live, q.heap[c], node) {
			break
		}
		q.heap[i] = q.heap[c]
		q.pos[q.heap[i]] = int32(i)
		i = c
	}
	q.heap[i] = node
	q.pos[node] = int32(i)
}
