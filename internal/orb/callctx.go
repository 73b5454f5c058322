package orb

import (
	"context"
	"sync"
	"time"
)

// callCtx is the serving side's context for a request whose frame
// carries a deadline. context.WithDeadline costs four allocations per
// call: the context, its timer, the timer's closure, and registration
// with the parent. Most handlers never wait on their context, so
// callCtx arms the timer and the watch on its parent only when Done or
// AfterFunc is first called, and otherwise costs its own allocation
// alone. Err reads the clock, so an unarmed callCtx still reports
// expiry at its deadline.
type callCtx struct {
	context.Context // parent
	deadline        time.Time

	mu      sync.Mutex
	done    chan struct{} // nil until armed
	err     error
	timer   *time.Timer
	unwatch func() bool  // stops the parent watch
	afters  []*afterFunc // stdlib children attached through AfterFunc
}

type afterFunc struct {
	f       func()
	stopped bool
}

// newCallCtx returns a context that expires at deadline or when parent
// is done. The caller must release it once the call is over.
func newCallCtx(parent context.Context, deadline time.Time) *callCtx {
	return &callCtx{Context: parent, deadline: deadline}
}

func (c *callCtx) Deadline() (time.Time, bool) { return c.deadline, true }

func (c *callCtx) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.armLocked()
	return c.done
}

func (c *callCtx) Err() error {
	c.mu.Lock()
	if c.err == nil {
		if err := c.Context.Err(); err != nil {
			c.expireLocked(err)
		} else if !time.Now().Before(c.deadline) {
			c.expireLocked(context.DeadlineExceeded)
		}
	}
	err := c.err
	c.mu.Unlock()
	if err != nil {
		c.runAfters()
	}
	return err
}

// AfterFunc implements the hook package context uses to attach a
// derived context to a parent of a foreign type; without it every
// context a handler derives would cost a watcher goroutine.
func (c *callCtx) AfterFunc(f func()) (stop func() bool) {
	a := &afterFunc{f: f}
	c.mu.Lock()
	c.armLocked()
	if c.err != nil {
		c.mu.Unlock()
		go f()
		return func() bool { return false }
	}
	c.afters = append(c.afters, a)
	c.mu.Unlock()
	return func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		if a.stopped {
			return false
		}
		a.stopped = true
		return true
	}
}

// release ends the call: the context is cancelled if it has not
// expired, and its timer and parent watch are stopped.
func (c *callCtx) release() {
	c.mu.Lock()
	c.expireLocked(context.Canceled)
	c.mu.Unlock()
	c.runAfters()
}

// armLocked creates the done channel and, unless the context is already
// over, the deadline timer and the parent watch; c.mu must be held.
func (c *callCtx) armLocked() {
	if c.done != nil {
		return
	}
	c.done = make(chan struct{})
	if c.err == nil {
		if err := c.Context.Err(); err != nil {
			c.err = err
		} else if d := time.Until(c.deadline); d <= 0 {
			c.err = context.DeadlineExceeded
		}
	}
	if c.err != nil {
		close(c.done)
		return
	}
	c.timer = time.AfterFunc(time.Until(c.deadline), func() { c.expire(context.DeadlineExceeded) })
	c.unwatch = context.AfterFunc(c.Context, func() { c.expire(c.Context.Err()) })
}

func (c *callCtx) expire(err error) {
	c.mu.Lock()
	c.expireLocked(err)
	c.mu.Unlock()
	c.runAfters()
}

// expireLocked records err as the context's end, if it has none yet;
// c.mu must be held.
func (c *callCtx) expireLocked(err error) {
	if c.err != nil {
		return
	}
	c.err = err
	if c.done == nil {
		return
	}
	close(c.done)
	c.timer.Stop()
	c.unwatch()
}

// runAfters runs, outside c.mu, the AfterFunc callbacks of an ended
// context that were not stopped: package context's callbacks cancel a
// child, which reads this context's Err.
func (c *callCtx) runAfters() {
	c.mu.Lock()
	afters := c.afters
	c.afters = nil
	run := afters[:0]
	for _, a := range afters {
		if !a.stopped {
			a.stopped = true
			run = append(run, a)
		}
	}
	c.mu.Unlock()
	for _, a := range run {
		a.f()
	}
}
