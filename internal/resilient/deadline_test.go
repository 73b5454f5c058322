package resilient

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"legion/internal/loid"
	"legion/internal/orb"
	"legion/internal/vclock"
)

// countingClock counts the contexts a Policy derives.
type countingClock struct {
	*vclock.Virtual
	derived atomic.Int64
}

func (c *countingClock) WithTimeout(parent context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	c.derived.Add(1)
	return c.Virtual.WithTimeout(parent, d)
}

func newCountingClock() *countingClock {
	return &countingClock{Virtual: vclock.NewVirtualAt(time.Unix(1_000_000, 0))}
}

var errAlways = fmt.Errorf("%w: always", orb.ErrInjectedFault)

// TestDoBudgetSoonerThanAttemptTimeout: with a budget shorter than the
// attempt timeout, the attempt's deadline is the budget deadline, on
// the one context derived for it.
func TestDoBudgetSoonerThanAttemptTimeout(t *testing.T) {
	vc := newCountingClock()
	p := Policy{MaxAttempts: 1, Budget: 30 * time.Millisecond, AttemptTimeout: time.Second, Clock: vc}
	vc.Run(func() {
		start := vc.Now()
		err := p.Do(context.Background(), func(ctx context.Context) error {
			dl, ok := ctx.Deadline()
			if want := start.Add(30 * time.Millisecond); !ok || !dl.Equal(want) {
				t.Errorf("attempt deadline %v (set %v), want the budget deadline %v", dl, ok, want)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	if n := vc.derived.Load(); n != 1 {
		t.Errorf("derived %d contexts, want 1", n)
	}
}

// TestDoParentDeadlineSoonest: when the caller's deadline is sooner than
// both the budget and the attempt timeout, the op runs on the caller's
// own context and no context is derived.
func TestDoParentDeadlineSoonest(t *testing.T) {
	vc := newCountingClock()
	p := Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, Jitter: -1,
		Budget: 30 * time.Millisecond, AttemptTimeout: time.Second, Clock: vc}
	vc.Run(func() {
		parent, cancel := vc.Virtual.WithTimeout(context.Background(), 10*time.Millisecond)
		defer cancel()
		pdl, _ := parent.Deadline()
		attempts := 0
		err := p.Do(parent, func(ctx context.Context) error {
			attempts++
			if ctx != parent {
				t.Errorf("attempt %d ran on a derived context", attempts)
			}
			if dl, ok := ctx.Deadline(); !ok || !dl.Equal(pdl) {
				t.Errorf("attempt deadline %v, want the parent's %v", dl, pdl)
			}
			return errAlways
		})
		if want := "resilient: 3 attempts exhausted: " + errAlways.Error(); err == nil || err.Error() != want {
			t.Errorf("err %v, want %q", err, want)
		}
	})
	if n := vc.derived.Load(); n != 0 {
		t.Errorf("derived %d contexts, want 0", n)
	}
}

// TestDoBackoffClampedToBudget: a backoff longer than the budget's
// remainder sleeps only to the budget deadline and ends the call there;
// the exhaustion texts are unchanged.
func TestDoBackoffClampedToBudget(t *testing.T) {
	vc := newCountingClock()
	p := Policy{MaxAttempts: 10, BaseDelay: 20 * time.Millisecond, Jitter: -1,
		Budget: 30 * time.Millisecond, Clock: vc}
	vc.Run(func() {
		start := vc.Now()
		var at []time.Duration
		err := p.Do(context.Background(), func(ctx context.Context) error {
			at = append(at, vc.Since(start))
			return errAlways
		})
		// Attempt 1 at 0, a 20ms backoff, attempt 2 at 20ms; the 40ms
		// backoff is clamped to the 10ms left, ending the call at 30ms.
		if want := "resilient: budget exhausted after 2 attempts: " + errAlways.Error(); err == nil || err.Error() != want {
			t.Errorf("err %v, want %q", err, want)
		}
		if len(at) != 2 || at[0] != 0 || at[1] != 20*time.Millisecond {
			t.Errorf("attempts at %v, want [0s 20ms]", at)
		}
		if d := vc.Since(start); d != 30*time.Millisecond {
			t.Errorf("Do returned after %v, want exactly the 30ms budget", d)
		}

		p := Policy{MaxAttempts: 2, BaseDelay: time.Millisecond, Jitter: -1,
			Budget: time.Second, Clock: vc}
		err = p.Do(context.Background(), func(context.Context) error { return errAlways })
		if want := "resilient: 2 attempts exhausted: " + errAlways.Error(); err == nil || err.Error() != want {
			t.Errorf("err %v, want %q", err, want)
		}
	})
}

// TestDoOneAttemptOneContext: a call that succeeds on its first attempt
// derives exactly one context, with Budget and AttemptTimeout both set;
// so does a Caller call.
func TestDoOneAttemptOneContext(t *testing.T) {
	vc := newCountingClock()
	p := Policy{Budget: time.Second, AttemptTimeout: 100 * time.Millisecond, Clock: vc}
	vc.Run(func() {
		start := vc.Now()
		err := p.Do(context.Background(), func(ctx context.Context) error {
			if dl, _ := ctx.Deadline(); !dl.Equal(start.Add(100 * time.Millisecond)) {
				t.Errorf("attempt deadline %v, want the attempt timeout", dl)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if n := vc.derived.Load(); n != 1 {
			t.Errorf("Do derived %d contexts, want 1", n)
		}
		f := &fakeInvoker{calls: map[string]int{}}
		c := NewCallerWith(f, p, nil)
		if _, err := c.Call(context.Background(), loid.LOID{Domain: "d", Class: "Host", Instance: 1}, "m", nil); err != nil {
			t.Fatal(err)
		}
		if n := vc.derived.Load(); n != 2 {
			t.Errorf("Caller.Call derived %d contexts, want 1", n-1)
		}
	})
}
