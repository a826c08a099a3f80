// Package clock abstracts time so that runtime components can be driven by
// the wall clock in experiments and by a manual clock in unit tests.
package clock

import (
	"sync"
	"time"
)

// Clock is the time source used by every runtime component. It mirrors the
// subset of package time that the stream processing runtime needs.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// Sleep blocks for d.
	Sleep(d time.Duration)
	// After returns a channel that delivers the current time after d.
	After(d time.Duration) <-chan time.Time
	// NewTicker returns a ticker firing every d.
	NewTicker(d time.Duration) Ticker
	// Since returns the elapsed time since t.
	Since(t time.Time) time.Duration
}

// Ticker mirrors time.Ticker behind an interface so manual clocks can
// provide deterministic tickers.
type Ticker interface {
	C() <-chan time.Time
	Stop()
}

// Real is the wall-clock implementation of Clock. On Linux its Sleep and
// After serve a wait under 2 ms from the precise timer service of
// precise_linux.go, so the wait takes what it asks for; an idle Go process
// rounds a runtime timer that short up to a millisecond. Longer waits,
// tickers and every other port use the runtime's timers.
type Real struct{}

var _ Clock = Real{}

// New returns the wall-clock Clock used by experiments.
func New() Clock { return Real{} }

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) {
	if !preciseSleep(d) {
		time.Sleep(d)
	}
}

// After implements Clock.
func (Real) After(d time.Duration) <-chan time.Time {
	if ch := preciseAfter(d); ch != nil {
		return ch
	}
	return time.After(d)
}

// Since implements Clock.
func (Real) Since(t time.Time) time.Duration { return time.Since(t) }

// NewTicker implements Clock.
func (Real) NewTicker(d time.Duration) Ticker { return realTicker{time.NewTicker(d)} }

type realTicker struct{ t *time.Ticker }

func (r realTicker) C() <-chan time.Time { return r.t.C }
func (r realTicker) Stop()               { r.t.Stop() }

// Manual is a deterministic clock for tests. Time only moves when Advance is
// called. Sleepers and timers wake when the clock passes their deadline.
type Manual struct {
	mu      sync.Mutex
	now     time.Time
	waiters []*manualWaiter
}

var _ Clock = (*Manual)(nil)

type manualWaiter struct {
	deadline time.Time
	ch       chan time.Time
	periodic time.Duration // zero for one-shot waiters
	stopped  bool
}

// NewManual returns a Manual clock starting at start.
func NewManual(start time.Time) *Manual {
	return &Manual{now: start}
}

// Now implements Clock.
func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// Since implements Clock.
func (m *Manual) Since(t time.Time) time.Duration {
	return m.Now().Sub(t)
}

// Sleep implements Clock. It blocks until Advance moves the clock past the
// deadline.
func (m *Manual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	<-m.After(d)
}

// After implements Clock.
func (m *Manual) After(d time.Duration) <-chan time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	w := &manualWaiter{deadline: m.now.Add(d), ch: make(chan time.Time, 1)}
	if d <= 0 {
		w.ch <- m.now
		return w.ch
	}
	m.waiters = append(m.waiters, w)
	return w.ch
}

// NewTicker implements Clock.
func (m *Manual) NewTicker(d time.Duration) Ticker {
	if d <= 0 {
		panic("clock: non-positive ticker interval")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	w := &manualWaiter{deadline: m.now.Add(d), ch: make(chan time.Time, 1), periodic: d}
	m.waiters = append(m.waiters, w)
	return &manualTicker{clock: m, w: w}
}

type manualTicker struct {
	clock *Manual
	w     *manualWaiter
}

func (t *manualTicker) C() <-chan time.Time { return t.w.ch }

func (t *manualTicker) Stop() {
	t.clock.mu.Lock()
	defer t.clock.mu.Unlock()
	t.w.stopped = true
}

// Advance moves the clock forward by d, waking all sleepers and firing all
// tickers whose deadlines are reached.
func (m *Manual) Advance(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	target := m.now.Add(d)
	// Fire waiters in deadline order so periodic tickers observe every tick
	// they are owed.
	for {
		var next *manualWaiter
		for _, w := range m.waiters {
			if w.stopped {
				continue
			}
			if !w.deadline.After(target) && (next == nil || w.deadline.Before(next.deadline)) {
				next = w
			}
		}
		if next == nil {
			break
		}
		m.now = next.deadline
		select {
		case next.ch <- m.now:
		default: // ticker consumer is behind; drop the tick like time.Ticker
		}
		if next.periodic > 0 {
			next.deadline = next.deadline.Add(next.periodic)
		} else {
			next.stopped = true
		}
	}
	m.now = target
	m.compactLocked()
}

func (m *Manual) compactLocked() {
	live := m.waiters[:0]
	for _, w := range m.waiters {
		if !w.stopped {
			live = append(live, w)
		}
	}
	m.waiters = live
}
