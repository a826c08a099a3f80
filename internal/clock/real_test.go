package clock

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestRealShortWaitsNeverEarly is the one property no timer may trade for
// precision or for a shared wake-up: a wait takes at least what it asked
// for. The range is the one the precise service of precise_linux.go takes
// over; the property holds on every port.
func TestRealShortWaitsNeverEarly(t *testing.T) {
	const goroutines, each = 8, 125
	c := New()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < each; i++ {
				d := 20*time.Microsecond + time.Duration(rng.Int63n(int64(1880*time.Microsecond)))
				start := time.Now()
				if i%2 == 0 {
					c.Sleep(d)
				} else {
					<-c.After(d)
				}
				if took := time.Since(start); took < d {
					t.Errorf("wait of %v returned after %v", d, took)
				}
			}
		}(int64(g + 1))
	}
	wg.Wait()
}

// TestRealLongAndNonPositiveWaits pins what the precise service leaves
// alone: a wait of 2 ms or more still takes at least that, and a zero or
// negative wait is over at once.
func TestRealLongAndNonPositiveWaits(t *testing.T) {
	c := New()
	for _, d := range []time.Duration{2 * time.Millisecond, 3 * time.Millisecond} {
		start := time.Now()
		c.Sleep(d)
		if took := time.Since(start); took < d {
			t.Errorf("Sleep(%v) returned after %v", d, took)
		}
		start = time.Now()
		<-c.After(d)
		if took := time.Since(start); took < d {
			t.Errorf("After(%v) fired after %v", d, took)
		}
	}
	for _, d := range []time.Duration{0, -time.Nanosecond, -time.Second} {
		start := time.Now()
		c.Sleep(d)
		select {
		case <-c.After(d):
		case <-time.After(2 * time.Second):
			t.Fatalf("After(%v) never fired", d)
		}
		if took := time.Since(start); took > 500*time.Millisecond {
			t.Errorf("Sleep(%v) and After(%v) took %v", d, d, took)
		}
	}
}
