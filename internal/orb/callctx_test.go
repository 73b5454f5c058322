package orb

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestCallCtxExpiresAtDeadline: an unarmed callCtx reports expiry from
// Err alone; an armed one closes Done at its deadline and cancels the
// contexts derived from it.
func TestCallCtxExpiresAtDeadline(t *testing.T) {
	c := newCallCtx(context.Background(), time.Now().Add(-time.Millisecond))
	if !errors.Is(c.Err(), context.DeadlineExceeded) {
		t.Fatalf("past deadline, unarmed: Err %v", c.Err())
	}
	select {
	case <-c.Done():
	default:
		t.Fatal("Done open after Err reported expiry")
	}
	c.release()
	if !errors.Is(c.Err(), context.DeadlineExceeded) {
		t.Fatalf("release overwrote the expiry: %v", c.Err())
	}

	c = newCallCtx(context.Background(), time.Now().Add(20*time.Millisecond))
	defer c.release()
	if c.Err() != nil {
		t.Fatalf("before deadline: Err %v", c.Err())
	}
	child, cancel := context.WithTimeout(c, time.Hour)
	defer cancel()
	if dl, _ := child.Deadline(); !dl.Equal(c.deadline) {
		t.Errorf("child deadline %v, want the parent's %v", dl, c.deadline)
	}
	select {
	case <-child.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("child not cancelled at the parent's deadline")
	}
	if !errors.Is(c.Err(), context.DeadlineExceeded) || !errors.Is(child.Err(), context.DeadlineExceeded) {
		t.Fatalf("Err: parent %v, child %v", c.Err(), child.Err())
	}
}

// TestCallCtxReleaseAndParent: release cancels the context and its
// children with context.Canceled, a parent's cancellation propagates,
// and a stopped AfterFunc does not run.
func TestCallCtxReleaseAndParent(t *testing.T) {
	c := newCallCtx(context.Background(), time.Now().Add(time.Hour))
	child, cancel := context.WithCancel(c)
	defer cancel()
	ran := make(chan struct{})
	stop := c.AfterFunc(func() { close(ran) })
	if !stop() || stop() {
		t.Fatal("stop: want true once, then false")
	}
	c.release()
	<-child.Done()
	if !errors.Is(c.Err(), context.Canceled) || !errors.Is(child.Err(), context.Canceled) {
		t.Fatalf("after release: parent %v, child %v", c.Err(), child.Err())
	}
	select {
	case <-ran:
		t.Fatal("stopped AfterFunc ran")
	case <-time.After(10 * time.Millisecond):
	}

	parent, pcancel := context.WithCancel(context.Background())
	c = newCallCtx(parent, time.Now().Add(time.Hour))
	defer c.release()
	done := c.Done()
	pcancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("parent cancellation did not propagate")
	}
	if !errors.Is(c.Err(), context.Canceled) {
		t.Fatalf("Err %v, want context.Canceled", c.Err())
	}

	// AfterFunc on an ended context runs f at once, on its own goroutine.
	ran = make(chan struct{})
	c.AfterFunc(func() { close(ran) })
	<-ran
}

// TestCallCtxConcurrentUse races readers, AfterFunc registrations and
// derived contexts against expiry and release; run under -race.
func TestCallCtxConcurrentUse(t *testing.T) {
	for i := 0; i < 50; i++ {
		c := newCallCtx(context.Background(), time.Now().Add(time.Duration(i%5)*100*time.Microsecond))
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				child, cancel := context.WithCancel(c)
				defer cancel()
				ran := make(chan struct{})
				c.AfterFunc(func() { close(ran) })
				_ = c.Err()
				<-c.Done()
				<-child.Done()
				<-ran
				if c.Err() == nil || child.Err() == nil {
					t.Error("Done closed with a nil Err")
				}
			}()
		}
		if i%2 == 0 {
			c.release()
		}
		wg.Wait()
		c.release()
	}
}
