package main

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"streamha/internal/element"
	"streamha/internal/pe"
)

// span is one traced interval. Spans are kept in memory and written out when
// the pass ends; Parent is 0 for a root.
type span struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

const (
	// processTimeEvery is how often a wrapped Process call is timed. Its
	// count is always exact; timing every call would cost more than the
	// ~20 ns call it measures.
	processTimeEvery = 64
	// processSpanEvery is how often a timed call is also kept as a span.
	processSpanEvery = 1024
)

// tracer collects the traced pass's spans and the wrap metrics: it wraps
// every pe.Logic of the chain, from the benchmark's side of the pe.Logic
// interface. While on is false a wrapped logic only forwards, which is what
// lets one deployment alternate traced and untraced windows.
type tracer struct {
	workload string
	on       atomic.Bool
	window   atomic.Int64 // span id of the open window, parent of pe.process spans
	nextID   atomic.Int64
	clockNS  float64 // cost of one time.Now/time.Since pair, taken off timed calls

	mu     sync.Mutex
	logics []*tracedLogic
	spans  []span
}

func newTracer(workload string) *tracer {
	tr := &tracer{workload: workload}
	const n = 20000
	var sum time.Duration
	for i := 0; i < n; i++ {
		sum += time.Since(time.Now())
	}
	tr.clockNS = float64(sum) / n
	return tr
}

// add records a span under the given id and returns the id.
func (tr *tracer) add(id, parent int64, name string, start, end time.Time) int64 {
	tr.mu.Lock()
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Name: name, Workload: tr.workload,
		StartNS: start.UnixNano(), EndNS: end.UnixNano()})
	tr.mu.Unlock()
	return id
}

// tracedLogic wraps one pe.CounterLogic instance. Process runs on the PE's
// own goroutine; Snapshot, DeltaSnapshot and Restore run on a checkpoint or
// recovery goroutine while the PE is paused, so those use atomics.
type tracedLogic struct {
	*pe.CounterLogic
	tr    *tracer
	stage int
	first bool // first PE of its subjob: stamps element age on arrival

	calls   uint64
	timed   uint64
	timedNS int64
	arrive  *hist

	snaps, deltas, restores    atomic.Int64
	snapNS, deltaNS, restoreNS atomic.Int64
}

func (tr *tracer) wrap(l *pe.CounterLogic, stage int, first bool) pe.Logic {
	tl := &tracedLogic{CounterLogic: l, tr: tr, stage: stage, first: first}
	if first {
		tl.arrive = &hist{}
	}
	tr.mu.Lock()
	tr.logics = append(tr.logics, tl)
	tr.mu.Unlock()
	return tl
}

var _ pe.PartialLogic = (*tracedLogic)(nil)

func (l *tracedLogic) Process(e element.Element, emit func(element.Element)) {
	if !l.tr.on.Load() {
		l.CounterLogic.Process(e, emit)
		return
	}
	l.calls++
	timed := l.calls%processTimeEvery == 0
	if !l.first && !timed {
		l.CounterLogic.Process(e, emit)
		return
	}
	start := time.Now()
	l.CounterLogic.Process(e, emit)
	if timed {
		d := time.Since(start)
		l.timed++
		l.timedNS += int64(d)
		if l.calls%processSpanEvery == 0 {
			l.tr.add(l.tr.nextID.Add(1), l.tr.window.Load(), "pe.process", start, start.Add(d))
		}
	}
	if l.first {
		l.arrive.add(start.UnixNano() - e.Origin)
	}
}

func (l *tracedLogic) Snapshot() []byte {
	start := time.Now()
	b := l.CounterLogic.Snapshot()
	l.snapNS.Add(int64(time.Since(start)))
	l.snaps.Add(1)
	return b
}

func (l *tracedLogic) DeltaSnapshot() ([]byte, bool) {
	start := time.Now()
	b, ok := l.CounterLogic.DeltaSnapshot()
	l.deltaNS.Add(int64(time.Since(start)))
	l.deltas.Add(1)
	return b, ok
}

func (l *tracedLogic) Restore(state []byte) error {
	start := time.Now()
	err := l.CounterLogic.Restore(state)
	l.restoreNS.Add(int64(time.Since(start)))
	l.restores.Add(1)
	return err
}

// wrapTotals is what the wrapped logics saw, read after the chain stopped.
type wrapTotals struct {
	calls, timed     uint64
	timedNS          int64
	arrive           map[int]*hist // per stage
	snaps, snapNS    int64
	deltas, deltaNS  int64
	restores, restNS int64
}

func (tr *tracer) totals() wrapTotals {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	t := wrapTotals{arrive: map[int]*hist{}}
	for _, l := range tr.logics {
		t.calls += l.calls
		t.timed += l.timed
		t.timedNS += l.timedNS
		if l.arrive != nil {
			if t.arrive[l.stage] == nil {
				t.arrive[l.stage] = &hist{}
			}
			t.arrive[l.stage].merge(l.arrive)
		}
		t.snaps += l.snaps.Load()
		t.snapNS += l.snapNS.Load()
		t.deltas += l.deltas.Load()
		t.deltaNS += l.deltaNS.Load()
		t.restores += l.restores.Load()
		t.restNS += l.restoreNS.Load()
	}
	return t
}

func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
