// Package fanout provides the bounded worker pool the negotiation hot
// path fans out on: per-resource calls (reservations, k-of-n probes,
// create_instance, cancellations, daemon pulls) are independent, so they
// run concurrently up to a configured limit instead of one host at a
// time.
package fanout

import (
	"sync"
	"sync/atomic"
)

// Limiter is a non-blocking concurrency bound over spawned goroutines:
// the admission-control counterpart of Do's fixed-width fan-out. The ORB
// server uses one to cap in-flight request handlers — a flood of frames
// on one connection must shed, not spawn goroutines until memory is
// exhausted.
type Limiter struct {
	limit    int64
	inFlight atomic.Int64
}

// NewLimiter returns a Limiter admitting at most limit concurrent
// tasks; limit < 1 panics, which is a configuration bug.
func NewLimiter(limit int) *Limiter {
	if limit < 1 {
		panic("fanout: limiter needs limit >= 1")
	}
	return &Limiter{limit: int64(limit)}
}

// TryAcquire takes a slot if one is free, reporting whether it did. It
// never blocks: at capacity it refuses immediately so the caller can
// shed with a typed refusal instead of queueing unboundedly. The caller
// runs its task on a goroutine of its own and calls Release when the
// task ends.
func (l *Limiter) TryAcquire() bool {
	if l.inFlight.Add(1) > l.limit {
		l.inFlight.Add(-1)
		return false
	}
	return true
}

// Release returns a slot taken by TryAcquire.
func (l *Limiter) Release() { l.inFlight.Add(-1) }

// InFlight returns the number of currently admitted tasks.
func (l *Limiter) InFlight() int { return int(l.inFlight.Load()) }

// Limit returns the configured bound.
func (l *Limiter) Limit() int { return int(l.limit) }

// Do calls fn(i) for every i in [0, n), running at most limit calls
// concurrently, and returns when all have finished. fn must write its
// result into caller-owned slots indexed by i (never shared state), so
// no synchronization is needed beyond the join. limit <= 1 degenerates
// to a plain loop on the calling goroutine — callers expose
// "parallelism 1" as an exact serial ablation.
//
// The calling goroutine works as one of the limit workers, so a fan-out
// of width w spawns min(limit, w)-1 goroutines, not w — on the query
// hot path (one Do per federated query) goroutine churn is measurable.
func Do(limit, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if limit > n {
		limit = n
	}
	if limit <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	worker := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(limit - 1)
	for w := 1; w < limit; w++ {
		go func() {
			defer wg.Done()
			worker()
		}()
	}
	worker()
	wg.Wait()
}
