package resilient

import (
	"context"
	"fmt"

	"legion/internal/loid"
)

// Invoker is the calling surface the resilience layer wraps —
// *orb.Runtime satisfies it.
type Invoker interface {
	Call(ctx context.Context, target loid.LOID, method string, arg any) (any, error)
}

// Caller makes metasystem calls through a retry policy and per-endpoint
// circuit breakers. Endpoints are keyed by target LOID: in the paper's
// model the LOID is the stable name of the Host/Vault/Collection being
// negotiated with, regardless of which connection carries the call.
// Safe for concurrent use.
type Caller struct {
	inv      Invoker
	policy   Policy
	breakers *BreakerSet // may be nil: retry without breakers
}

// NewCaller wraps inv with the policy and a fresh breaker set.
func NewCaller(inv Invoker, p Policy, bc BreakerConfig) *Caller {
	return &Caller{inv: inv, policy: p, breakers: NewBreakerSet(bc)}
}

// NewCallerWith wraps inv sharing an existing breaker set (nil disables
// breakers), so several components can pool endpoint health knowledge.
func NewCallerWith(inv Invoker, p Policy, breakers *BreakerSet) *Caller {
	return &Caller{inv: inv, policy: p, breakers: breakers}
}

// Breakers exposes the caller's breaker set (nil when disabled).
func (c *Caller) Breakers() *BreakerSet { return c.breakers }

// Policy returns the caller's retry policy.
func (c *Caller) Policy() Policy { return c.policy }

// Call invokes method on target under the retry policy; every attempt
// consults and informs the target's breaker. An open breaker fails the
// call immediately with ErrCircuitOpen (classified permanent, so callers
// fall back instead of spinning).
func (c *Caller) Call(ctx context.Context, target loid.LOID, method string, arg any) (any, error) {
	return c.call(ctx, c.policy, target, method, arg)
}

// CallOnce invokes without retries (one attempt) but still through the
// breaker — for non-idempotent operations where a duplicate would leak
// real work.
func (c *Caller) CallOnce(ctx context.Context, target loid.LOID, method string, arg any) (any, error) {
	p := c.policy
	p.MaxAttempts = 1
	return c.call(ctx, p, target, method, arg)
}

// CallPolicy invokes under an explicit policy override.
func (c *Caller) CallPolicy(ctx context.Context, p Policy, target loid.LOID, method string, arg any) (any, error) {
	return c.call(ctx, p, target, method, arg)
}

func (c *Caller) call(ctx context.Context, p Policy, target loid.LOID, method string, arg any) (any, error) {
	var br *Breaker
	if c.breakers != nil {
		br = c.breakers.ForLOID(target)
	}
	r := p.start(ctx)
	for {
		actx, cancel := r.attempt()
		res, err := c.attempt(actx, br, target, method, arg)
		if cancel != nil {
			cancel()
		}
		if err == nil {
			return res, nil
		}
		if err = r.retry(err); err != nil {
			return nil, err
		}
	}
}

// attempt makes one call through the target's breaker.
func (c *Caller) attempt(ctx context.Context, br *Breaker, target loid.LOID, method string, arg any) (any, error) {
	if br != nil {
		if err := br.Allow(); err != nil {
			return nil, fmt.Errorf("%w (target %v, method %s)", err, target, method)
		}
	}
	res, err := c.inv.Call(ctx, target, method, arg)
	if br != nil {
		br.Record(err)
	}
	return res, err
}
