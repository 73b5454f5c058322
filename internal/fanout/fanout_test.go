package fanout

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestDoCoversEveryIndexOnce(t *testing.T) {
	for _, limit := range []int{1, 2, 8, 100} {
		n := 37
		counts := make([]int32, n)
		Do(limit, n, func(i int) { atomic.AddInt32(&counts[i], 1) })
		for i, c := range counts {
			if c != 1 {
				t.Errorf("limit %d: index %d called %d times", limit, i, c)
			}
		}
	}
}

func TestDoBoundsConcurrency(t *testing.T) {
	const limit = 3
	var inflight, peak int32
	var mu sync.Mutex
	Do(limit, 20, func(int) {
		cur := atomic.AddInt32(&inflight, 1)
		mu.Lock()
		if cur > peak {
			peak = cur
		}
		mu.Unlock()
		time.Sleep(time.Millisecond)
		atomic.AddInt32(&inflight, -1)
	})
	if peak > limit {
		t.Errorf("peak concurrency %d exceeds limit %d", peak, limit)
	}
	if peak < 2 {
		t.Errorf("peak concurrency %d: never actually parallel", peak)
	}
}

func TestDoSerialWhenLimitOne(t *testing.T) {
	// limit 1 must run in order on the calling goroutine: appending to a
	// plain slice with no synchronization is race-free only then (the
	// race detector guards this property).
	var order []int
	Do(1, 5, func(i int) { order = append(order, i) })
	for i, got := range order {
		if got != i {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestDoZeroAndNegative(t *testing.T) {
	called := false
	Do(4, 0, func(int) { called = true })
	Do(0, -3, func(int) { called = true })
	if called {
		t.Error("fn called for empty range")
	}
}

// tryGo runs fn on a new goroutine in a slot of l, if one is free: the
// ORB server's use of the Limiter.
func tryGo(l *Limiter, fn func()) bool {
	if !l.TryAcquire() {
		return false
	}
	go func() {
		defer l.Release()
		fn()
	}()
	return true
}

func TestLimiterAdmitsUpToLimit(t *testing.T) {
	l := NewLimiter(3)
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		if !tryGo(l, func() { defer wg.Done(); <-release }) {
			t.Fatalf("task %d refused below limit", i)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for l.InFlight() != 3 {
		if time.Now().After(deadline) {
			t.Fatal("admitted tasks never counted in-flight")
		}
		time.Sleep(time.Millisecond)
	}
	if tryGo(l, func() {}) {
		t.Fatal("admitted past the limit")
	}
	close(release)
	wg.Wait()
	for l.InFlight() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("slots never released")
		}
		time.Sleep(time.Millisecond)
	}
	done := make(chan struct{})
	if !tryGo(l, func() { close(done) }) {
		t.Fatal("refused after slots freed")
	}
	<-done
	if l.Limit() != 3 {
		t.Fatalf("Limit() = %d, want 3", l.Limit())
	}
}

func TestLimiterRefusalIsNonBlocking(t *testing.T) {
	l := NewLimiter(1)
	release := make(chan struct{})
	defer close(release)
	var wg sync.WaitGroup
	wg.Add(1)
	if !tryGo(l, func() { defer wg.Done(); <-release }) {
		t.Fatal("first task refused")
	}
	deadline := time.Now().Add(5 * time.Second)
	for l.InFlight() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("task never started")
		}
		time.Sleep(time.Millisecond)
	}
	var ran atomic.Bool
	start := time.Now()
	if tryGo(l, func() { ran.Store(true) }) {
		t.Fatal("admitted past the limit")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("refusal blocked for %v", elapsed)
	}
	if ran.Load() {
		t.Fatal("refused task ran anyway")
	}
}

func TestLimiterPanicsOnBadLimit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewLimiter(0) did not panic")
		}
	}()
	NewLimiter(0)
}
