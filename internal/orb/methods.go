package orb

import (
	"sync"
	"sync/atomic"

	"legion/internal/telemetry"
)

// methodStats is what one side of the ORB records for every call of one
// method: its latency histogram and, on the serving side, the span
// name. Resolving them per call would build a label key and take the
// registry's lock on every call; a methodCache resolves them once per
// method. Error counters stay per-call lookups: they are off the hot
// path, and minting them eagerly would add zero-valued lines to dumps.
type methodStats struct {
	span    string               // "rpc/" + method
	seconds *telemetry.Histogram // legion_orb_{client,server}_seconds{method}
}

// methodCacheMax bounds a cache: method names arrive from the wire, and
// a peer inventing names must not grow it (or its copy-on-write cost)
// without limit. Past it, stats are resolved per call, as before.
const methodCacheMax = 512

// methodCache maps method names to methodStats for one registry and one
// side (client or server). Reads are one atomic load and a map lookup
// on an immutable snapshot; inserts copy the map under mu.
type methodCache struct {
	reg  *telemetry.Registry
	hist string // histogram name

	mu     sync.Mutex
	byName atomic.Pointer[map[string]*methodStats]
}

func newMethodCache(reg *telemetry.Registry, hist string) *methodCache {
	return &methodCache{reg: reg, hist: hist}
}

// get returns the method's stats, resolving them on first use.
func (c *methodCache) get(method string) *methodStats {
	if m := c.byName.Load(); m != nil {
		if st, ok := (*m)[method]; ok {
			return st
		}
	}
	st := &methodStats{
		span:    "rpc/" + method,
		seconds: c.reg.Histogram(c.hist, telemetry.LatencyBuckets, "method", method),
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var old map[string]*methodStats
	if m := c.byName.Load(); m != nil {
		old = *m
	}
	if got, ok := old[method]; ok {
		return got
	}
	if len(old) >= methodCacheMax {
		return st
	}
	next := make(map[string]*methodStats, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[method] = st
	c.byName.Store(&next)
	return st
}
