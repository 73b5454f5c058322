package orb

import (
	"fmt"
	"sync"
	"testing"

	"legion/internal/telemetry"
)

// TestMethodCacheResolvesOnce: concurrent lookups of one method share
// one histogram, the registry's own handle for that label, and the
// cache stops growing at methodCacheMax while still answering.
func TestMethodCacheResolvesOnce(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := newMethodCache(reg, "legion_orb_server_seconds")
	want := reg.Histogram("legion_orb_server_seconds", telemetry.LatencyBuckets, "method", "echo")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				st := c.get("echo")
				if st.seconds != want || st.span != "rpc/echo" {
					t.Errorf("get(echo) = %+v, want the registry's handle", st)
					return
				}
				c.get(fmt.Sprintf("m%d", (g*100+i)%40))
			}
		}(g)
	}
	wg.Wait()
	for i := 0; i < 2*methodCacheMax; i++ {
		if st := c.get(fmt.Sprintf("flood%d", i)); st.span != fmt.Sprintf("rpc/flood%d", i) {
			t.Fatalf("uncached get returned %q", st.span)
		}
	}
	if n := len(*c.byName.Load()); n != methodCacheMax {
		t.Errorf("cache holds %d methods, want the cap %d", n, methodCacheMax)
	}
}
