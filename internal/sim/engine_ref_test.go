package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// The differential engine test. A script of Schedule/At/Cancel/Reset/copy/
// Push/RunUntil/Run operations over numbered handle slots is replayed
// on three models: the reference below (a slice kept sorted by (at, seq)),
// the engine with Reset, and the engine with Reset spelled Cancel +
// Schedule. A Push goes onto one of a few Lines, each with its own constant
// delay drawn from the script's delays, so pushed firings share timestamps
// with queued Schedule and Reset events; the reference treats a Push as a
// Schedule. Every fired callback records (Now, tag) and runs its own
// pre-generated operations, so cancels and resets from inside callbacks -
// including of the firing event's own handle - are part of the script.
// After every operation each model also records Now, Pending and the
// touched handle's At. The three records must be identical, and the
// engine's heap, positions and free list are checked after every
// operation.

const (
	opSchedule = iota
	opAt
	opCancel
	opReset
	opCopy
	opRunUntil
	opRun
	opPush
)

// lineDelays are the constant delays of the scripts' lines (slot mod
// len(lineDelays) picks one); the negative one clamps to zero like
// Schedule.
var lineDelays = []time.Duration{-time.Millisecond, time.Millisecond, 3 * time.Millisecond}

// lineKey is the engine-local stock of the test lines' rings.
var lineKey = NewLocalKey()

type scriptOp struct {
	kind int
	slot int           // handle slot acted on (copy: destination; push: line)
	src  int           // copy source slot
	d    time.Duration // delay; At offset from Now; RunUntil horizon from Now
	tag  int           // callback scheduled by Schedule, At, Reset and Push
}

type script struct {
	slots int
	top   []scriptOp
	plans [][]scriptOp // plans[tag]: what the callback of tag does when it fires
}

// record is one observation; tag >= 0 marks a fired callback.
type record struct {
	now     time.Duration
	tag     int
	pending int
	at      time.Duration
}

// eventAt returns the virtual time h fires at, or 0 once the handle is
// stale (the event fired, was cancelled or was re-armed).
func eventAt(h Event) time.Duration {
	if i := h.pos(); i >= 0 {
		return h.eng.queue[i].at
	}
	return 0
}

// scriptGen draws scripts. bulk scripts rarely run the engine, so the heap
// grows past the inline arena slots into several blocks.
type scriptGen struct {
	r    *rand.Rand
	sc   *script
	bulk bool
}

func genScript(seed int64, nTop, slots int, bulk bool) *script {
	g := &scriptGen{r: rand.New(rand.NewSource(seed)), sc: &script{slots: slots}, bulk: bulk}
	for i := 0; i < nTop; i++ {
		g.sc.top = append(g.sc.top, g.op(0, -1))
	}
	return g.sc
}

// delay draws from a handful of values, negative included, so equal
// timestamps and past-time clamping are common.
func (g *scriptGen) delay() time.Duration {
	return time.Duration(g.r.Intn(7)-2) * time.Millisecond
}

// newTag allocates a callback and, sometimes, gives it operations of its
// own; own is the slot the scheduling handle lands in.
func (g *scriptGen) newTag(depth, own int) int {
	tag := len(g.sc.plans)
	g.sc.plans = append(g.sc.plans, nil)
	if depth < 3 && g.r.Intn(3) == 0 {
		var ops []scriptOp
		for n := 1 + g.r.Intn(3); n > 0; n-- {
			ops = append(ops, g.op(depth+1, own))
		}
		g.sc.plans[tag] = ops
	}
	return tag
}

// op draws one operation. Nested operations (depth > 0, run from inside a
// callback) never re-enter Run or RunUntil, and half of them act on the
// firing event's own handle slot.
func (g *scriptGen) op(depth, own int) scriptOp {
	slot := g.r.Intn(g.sc.slots)
	if own >= 0 && g.r.Intn(2) == 0 {
		slot = own
	}
	o := scriptOp{slot: slot, d: g.delay()}
	k := g.r.Intn(110)
	if g.bulk && depth == 0 && k >= 85 && k < 100 {
		k = g.r.Intn(60) // mostly scheduling; the final Run drains
	}
	switch {
	case k >= 100:
		o.kind = opPush
		o.d = lineDelays[slot%len(lineDelays)]
	case k < 25:
		o.kind = opSchedule
	case k < 35:
		o.kind = opAt
	case k < 50:
		o.kind = opCancel
	case k < 70:
		o.kind = opReset
	case k < 85 || depth > 0:
		o.kind = opCopy
		o.src = g.r.Intn(g.sc.slots)
	case k < 95:
		o.kind = opRunUntil
		o.d = time.Duration(g.r.Intn(5)) * time.Millisecond
	default:
		o.kind = opRun
	}
	if o.kind == opSchedule || o.kind == opAt || o.kind == opReset || o.kind == opPush {
		o.tag = g.newTag(depth, o.slot)
	}
	return o
}

// refModel is the reference: a slice kept sorted by (at, seq).
type refModel struct {
	sc  *script
	now time.Duration
	seq uint64
	q   []refEntry
	h   []refHandle
	out []record
}

type refEntry struct {
	at  time.Duration
	seq uint64
	tag int
}

type refHandle struct {
	seq uint64 // 0: refers to nothing
}

func (m *refModel) find(seq uint64) int {
	for i := range m.q {
		if m.q[i].seq == seq {
			return i
		}
	}
	return -1
}

func (m *refModel) schedule(t time.Duration, tag int) refHandle {
	if t < m.now {
		t = m.now
	}
	m.seq++
	i, _ := slices.BinarySearchFunc(m.q, t, func(x refEntry, t time.Duration) int {
		if x.at <= t {
			return -1 // the new entry has the largest seq: after every equal time
		}
		return 1
	})
	m.q = slices.Insert(m.q, i, refEntry{at: t, seq: m.seq, tag: tag})
	return refHandle{seq: m.seq}
}

func (m *refModel) cancel(h *refHandle) {
	if i := m.find(h.seq); i >= 0 {
		m.q = slices.Delete(m.q, i, i+1)
	}
	h.seq = 0
}

func (m *refModel) run(t time.Duration, bounded bool) {
	for len(m.q) > 0 && (!bounded || m.q[0].at <= t) {
		x := m.q[0]
		m.q = slices.Delete(m.q, 0, 1)
		m.now = x.at
		m.out = append(m.out, record{now: m.now, tag: x.tag, pending: len(m.q)})
		for _, o := range m.sc.plans[x.tag] {
			m.exec(o)
		}
	}
	if bounded && m.now < t {
		m.now = t
	}
}

func (m *refModel) exec(o scriptOp) {
	h := &m.h[o.slot]
	switch o.kind {
	case opSchedule:
		*h = m.schedule(m.now+max(o.d, 0), o.tag)
	case opAt:
		*h = m.schedule(m.now+o.d, o.tag)
	case opCancel:
		m.cancel(h)
	case opReset:
		m.cancel(h)
		*h = m.schedule(m.now+max(o.d, 0), o.tag)
	case opCopy:
		*h = m.h[o.src]
	case opRunUntil:
		m.run(m.now+o.d, true)
	case opRun:
		m.run(0, false)
	case opPush:
		m.schedule(m.now+max(o.d, 0), o.tag)
	}
	r := record{now: m.now, tag: -1, pending: len(m.q)}
	if i := m.find(h.seq); i >= 0 {
		r.at = m.q[i].at
	}
	m.out = append(m.out, r)
}

// engModel replays a script on the engine; viaReset selects Engine.Reset
// or its Cancel + Schedule spelling.
type engModel struct {
	sc       *script
	e        *Engine
	viaReset bool
	h        []Event
	lines    []*Line[int]
	fns      []func()
	out      []record
	err      error
}

func newEngModel(sc *script, viaReset bool) *engModel {
	m := &engModel{sc: sc, e: New(1), viaReset: viaReset, h: make([]Event, sc.slots)}
	m.fns = make([]func(), len(sc.plans))
	for tag := range m.fns {
		tag := tag
		m.fns[tag] = func() {
			m.out = append(m.out, record{now: m.e.Now(), tag: tag, pending: m.e.Pending()})
			for _, o := range m.sc.plans[tag] {
				m.exec(o)
			}
		}
	}
	for range lineDelays {
		m.lines = append(m.lines, NewLine(m.e, lineKey, func(tag int) { m.fns[tag]() }))
	}
	return m
}

func (m *engModel) exec(o scriptOp) {
	h := &m.h[o.slot]
	switch o.kind {
	case opSchedule:
		*h = m.e.Schedule(o.d, m.fns[o.tag])
	case opAt:
		*h = m.e.At(m.e.Now()+o.d, m.fns[o.tag])
	case opCancel:
		h.Cancel()
	case opReset:
		if m.viaReset {
			m.e.Reset(h, o.d, m.fns[o.tag])
		} else {
			h.Cancel()
			*h = m.e.Schedule(o.d, m.fns[o.tag])
		}
	case opCopy:
		*h = m.h[o.src]
	case opRunUntil:
		m.e.RunUntil(m.e.Now() + o.d)
	case opRun:
		m.e.Run()
	case opPush:
		m.lines[o.slot%len(m.lines)].Push(o.d, o.tag)
	}
	m.out = append(m.out, record{now: m.e.Now(), tag: -1, pending: m.e.Pending(), at: eventAt(*h)})
	err := checkEngine(m.e)
	if err == nil {
		err = checkLines(m.e, m.lines)
	}
	if err != nil && m.err == nil {
		m.err = fmt.Errorf("after op %d (%+v): %w", len(m.out), o, err)
	}
}

// checkLines verifies that each line keeps its firings in (at, seq) order,
// that exactly the busy lines have their head queued under its reserved
// key, and that the engine counts every other line firing as parked.
func checkLines[T any](e *Engine, lines []*Line[T]) error {
	parked := 0
	for k, l := range lines {
		n := l.ring.Len()
		for i := 1; i < n; i++ {
			a, b := l.ring.At(i-1), l.ring.At(i)
			if b.at < a.at || b.seq <= a.seq {
				return fmt.Errorf("line %d: entry %d (%v, %d) after (%v, %d)", k, i, b.at, b.seq, a.at, a.seq)
			}
		}
		queued := 0
		for _, x := range e.queue {
			if e.slot(x.id()).fn != nil && n > 0 && x.key>>idBits == l.ring.Front().seq {
				queued++
				if x.at != l.ring.Front().at {
					return fmt.Errorf("line %d: head queued at %v, want %v", k, x.at, l.ring.Front().at)
				}
			}
		}
		if want := min(n, 1); queued != want {
			return fmt.Errorf("line %d with %d firings has %d heap entries, want %d", k, n, queued, want)
		}
		parked += max(n-1, 0)
	}
	if parked != int(e.parked) {
		return fmt.Errorf("engine counts %d parked firings, lines hold %d", e.parked, parked)
	}
	return nil
}

// checkEngine verifies the heap order, every queued slot's recorded
// position, and that each arena slot is either queued or on the free list.
// Inside a callback that has armed nothing yet, the root is the firing
// event's spent entry: its slot must be free (no callback, position -1,
// on the free list) and is counted once, as free.
func checkEngine(e *Engine) error {
	q := e.queue
	if e.spent && len(q) == 0 {
		return fmt.Errorf("spent root on an empty heap")
	}
	for i := range q {
		if i > 0 && q[i].less(q[(i-1)/4]) {
			return fmt.Errorf("heap order broken at %d", i)
		}
		if i == 0 && e.spent {
			continue
		}
		if p := e.slot(q[i].id()).pos; p != int32(i) {
			return fmt.Errorf("entry %d records position %d", i, p)
		}
	}
	free, spentFree := 0, false
	for id := e.free; id >= 0; id = e.slot(uint32(id)).next {
		if free++; free > int(e.slots) {
			return fmt.Errorf("free list cycles")
		}
		if ev := e.slot(uint32(id)); ev.pos != -1 || ev.fn != nil {
			return fmt.Errorf("free slot %d holds pos %d or a callback", id, ev.pos)
		}
		if e.spent && uint32(id) == q[0].id() {
			spentFree = true
		}
	}
	queued := len(q)
	if e.spent {
		if !spentFree {
			return fmt.Errorf("spent root's slot %d is not on the free list", q[0].id())
		}
		queued--
	}
	if free+queued != int(e.slots) {
		return fmt.Errorf("%d free + %d queued != %d slots", free, queued, e.slots)
	}
	return nil
}

// replay runs sc on all three models and fails on the first difference.
func replay(t *testing.T, name string, sc *script) {
	t.Helper()
	ref := &refModel{sc: sc, h: make([]refHandle, sc.slots)}
	reset, spelled := newEngModel(sc, true), newEngModel(sc, false)
	// The script ends by running until the queue is empty.
	drain := scriptOp{kind: opRun}
	for i := 0; i < len(sc.top) || len(ref.q) > 0; i++ {
		o := drain
		if i < len(sc.top) {
			o = sc.top[i]
		}
		ref.exec(o)
		reset.exec(o)
		spelled.exec(o)
	}
	for _, m := range []*engModel{reset, spelled} {
		if m.err != nil {
			t.Fatalf("%s (viaReset=%v): %v", name, m.viaReset, m.err)
		}
	}
	for _, c := range []struct {
		label string
		got   []record
	}{{"Reset", reset.out}, {"Cancel+Schedule", spelled.out}} {
		if len(c.got) != len(ref.out) {
			t.Fatalf("%s: %s made %d records, reference %d", name, c.label, len(c.got), len(ref.out))
		}
		for i := range c.got {
			if c.got[i] != ref.out[i] {
				t.Fatalf("%s: %s record %d = %+v, reference %+v", name, c.label, i, c.got[i], ref.out[i])
			}
		}
	}
	if reset.e.seq != spelled.e.seq {
		t.Fatalf("%s: Reset drew %d sequence numbers, Cancel+Schedule %d", name, reset.e.seq, spelled.e.seq)
	}
}

func TestEngineMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 400; seed++ {
		r := rand.New(rand.NewSource(seed))
		replay(t, fmt.Sprintf("seed %d", seed), genScript(seed, 5+r.Intn(120), 1+r.Intn(8), false))
	}
	for seed := int64(1); seed <= 20; seed++ {
		// Up to ~1,500 events queued at once: several arena blocks.
		replay(t, fmt.Sprintf("bulk seed %d", seed), genScript(seed, 2500, 48, true))
	}
}

// TestRemovalAtEveryHeapPosition cancels, or resets earlier, later or to
// the same time, the event at each position of heaps of 1 to 70 entries
// (the only entry, the root, inner nodes and leaves, first and last) and
// checks the pop order against the reference.
func TestRemovalAtEveryHeapPosition(t *testing.T) {
	for n := 1; n <= 70; n++ {
		r := rand.New(rand.NewSource(int64(n)))
		sc := &script{slots: n}
		for k := 0; k < n; k++ {
			sc.top = append(sc.top, scriptOp{kind: opSchedule, slot: k, d: time.Duration(r.Intn(6)) * time.Millisecond, tag: k})
			sc.plans = append(sc.plans, nil)
		}
		probe := newEngModel(sc, true)
		for _, o := range sc.top {
			probe.exec(o)
		}
		for pos := 0; pos < n; pos++ {
			slot := -1
			for k := range probe.h {
				if probe.h[k].pos() == pos {
					slot = k
				}
			}
			if slot < 0 {
				t.Fatalf("n=%d: no handle at heap position %d", n, pos)
			}
			for _, o := range []scriptOp{
				{kind: opCancel, slot: slot},
				{kind: opReset, slot: slot, d: 0},
				{kind: opReset, slot: slot, d: 3 * time.Millisecond},
				{kind: opReset, slot: slot, d: 9 * time.Millisecond},
			} {
				o.tag = len(sc.plans)
				one := &script{slots: n, plans: append(slices.Clone(sc.plans), nil)}
				one.top = append(slices.Clone(sc.top), o, scriptOp{kind: opRun})
				replay(t, fmt.Sprintf("n=%d pos=%d op=%+v", n, pos, o), one)
			}
		}
	}
}

// TestResetFromOwnCallback: inside its callback an event's handle is
// already stale, so cancelling it is a no-op and Reset schedules afresh.
func TestResetFromOwnCallback(t *testing.T) {
	e := New(1)
	var h Event
	var fired []time.Duration
	var fn func()
	fn = func() {
		fired = append(fired, e.Now())
		h.Cancel()
		if len(fired) < 3 {
			e.Reset(&h, time.Millisecond, fn)
		}
	}
	h = e.Schedule(time.Millisecond, fn)
	e.Run()
	if want := []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}; !slices.Equal(fired, want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
	if eventAt(h) != 0 || e.Pending() != 0 {
		t.Fatalf("At = %v, Pending = %d after the chain ran out", eventAt(h), e.Pending())
	}
}

// TestResetStalesHandleCopies: a copy taken before Reset refers to the old
// scheduling, so cancelling it must not touch the re-armed event.
func TestResetStalesHandleCopies(t *testing.T) {
	e := New(1)
	fired := 0
	h := e.Schedule(5*time.Millisecond, func() { fired++ })
	e.Schedule(time.Millisecond, func() {}) // h is not the only entry
	cp := h
	e.Reset(&h, 2*time.Millisecond, func() { fired += 10 })
	if eventAt(cp) != 0 {
		t.Fatalf("stale copy At = %v, want 0", eventAt(cp))
	}
	cp.Cancel()
	if eventAt(h) != 2*time.Millisecond || e.Pending() != 2 {
		t.Fatalf("after cancelling the copy: At %v, Pending %d", eventAt(h), e.Pending())
	}
	e.Run()
	if fired != 10 {
		t.Fatalf("fired = %d, want only the re-armed callback (10)", fired)
	}
}

// TestWarmCyclesAllocateNothing pins the steady state: once the arena,
// heap and line ring have grown, re-arming, cancelling, ticking and a
// line's push and fire allocate nothing.
func TestWarmCyclesAllocateNothing(t *testing.T) {
	e := New(1)
	noop := func() {}
	for i := 0; i < 1000; i++ {
		e.Schedule(time.Hour+time.Duration(i)*time.Millisecond, noop)
	}
	pump := e.Schedule(time.Millisecond, noop)
	var fired Event
	e.Every(time.Millisecond, noop)
	l := NewLine(e, lineKey, func(int) {})
	for k := 0; k < 100; k++ {
		l.Push(100*time.Microsecond, k)
		e.RunUntil(e.Now() + time.Microsecond)
	}
	i := 0
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"reset queued", func() {
			i++
			e.Reset(&pump, time.Duration(i%7)*time.Millisecond, noop)
		}},
		{"reset fired", func() {
			e.Reset(&fired, 0, noop)
			e.RunUntil(e.Now())
		}},
		{"schedule+cancel", func() {
			ev := e.Schedule(time.Duration(i%5)*time.Millisecond, noop)
			ev.Cancel()
		}},
		{"ticker", func() { e.RunUntil(e.Now() + time.Millisecond) }},
		{"line push+fire", func() {
			l.Push(100*time.Microsecond, i)
			e.RunUntil(e.Now() + time.Microsecond)
		}},
	} {
		if n := testing.AllocsPerRun(1000, c.fn); n != 0 {
			t.Errorf("%s: %.1f allocs per cycle, want 0", c.name, n)
		}
	}
	if err := checkEngine(e); err != nil {
		t.Fatal(err)
	}
}
