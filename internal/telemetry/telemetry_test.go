package telemetry

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHistogramBucketEdges pins the boundary semantics: an observation
// exactly at a bucket's upper bound counts in that bucket, not the next.
func TestHistogramBucketEdges(t *testing.T) {
	h := newHistogram([]float64{1, 2, 5})

	cases := []struct {
		v      float64
		bucket int // index into counts; 3 = +Inf overflow
	}{
		{0, 0},
		{0.5, 0},
		{1, 0}, // exactly at the edge -> le="1"
		{1.0001, 1},
		{2, 1}, // exactly at the edge -> le="2"
		{4.999, 2},
		{5, 2},
		{5.0001, 3}, // above the last bound -> +Inf
		{1e9, 3},
	}
	for _, c := range cases {
		before := snapshotCounts(h)
		h.Observe(c.v)
		after := snapshotCounts(h)
		for i := range after {
			want := before[i]
			if i == c.bucket {
				want++
			}
			if after[i] != want {
				t.Errorf("Observe(%g): bucket[%d] = %d, want %d", c.v, i, after[i], want)
			}
		}
	}
	if h.Count() != int64(len(cases)) {
		t.Errorf("Count = %d, want %d", h.Count(), len(cases))
	}
}

func snapshotCounts(h *Histogram) []int64 {
	_, counts := h.Buckets()
	return counts
}

func TestHistogramSumMean(t *testing.T) {
	h := newHistogram(LatencyBuckets)
	for _, v := range []float64{0.001, 0.002, 0.003} {
		h.Observe(v)
	}
	if got := h.Sum(); got < 0.0059 || got > 0.0061 {
		t.Errorf("Sum = %g, want ~0.006", got)
	}
	if got := h.Mean(); got < 0.0019 || got > 0.0021 {
		t.Errorf("Mean = %g, want ~0.002", got)
	}
}

// TestConcurrentCounters hammers one counter, one gauge, and one
// histogram from many goroutines; run under -race this is the data-race
// check, and the totals check the arithmetic.
func TestConcurrentCounters(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c")
	g := reg.Gauge("g")
	h := reg.Histogram("h", LatencyBuckets)

	const workers, each = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*each {
		t.Errorf("counter = %d, want %d", c.Value(), workers*each)
	}
	if g.Value() != 0 {
		t.Errorf("gauge = %d, want 0", g.Value())
	}
	if h.Count() != workers*each {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*each)
	}
}

// TestRegistryHandleIdentity: same (name, labels) yields the same
// handle; different labels yield different handles.
func TestRegistryHandleIdentity(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x", "method", "m1")
	b := reg.Counter("x", "method", "m1")
	c := reg.Counter("x", "method", "m2")
	if a != b {
		t.Error("same identity returned distinct handles")
	}
	if a == c {
		t.Error("distinct labels returned the same handle")
	}
	a.Inc()
	if got := reg.CounterValue("x", "method", "m1"); got != 1 {
		t.Errorf("CounterValue = %d, want 1", got)
	}
	if got := reg.CounterValue("x", "method", "m2"); got != 0 {
		t.Errorf("CounterValue(m2) = %d, want 0", got)
	}
}

func TestDisabledRegistryIsInert(t *testing.T) {
	reg := NewDisabled()
	reg.Counter("c").Inc()
	reg.Gauge("g").Set(5)
	reg.Histogram("h", LatencyBuckets).Observe(1)
	ctx, span := reg.Spans().Start(context.Background(), "s")
	span.Finish(nil)
	if _, ok := SpanFromContext(ctx); ok {
		t.Error("disabled span log leaked a span context")
	}
	if reg.CounterValue("c") != 0 || reg.GaugeValue("g") != 0 {
		t.Error("disabled registry recorded values")
	}
	if reg.Spans().Total() != 0 {
		t.Error("disabled span log recorded spans")
	}
}

// TestDisabledLookupsAllocateNothing: labeled lookups on a disabled
// registry return the shared no-op handles without building a label key.
func TestDisabledLookupsAllocateNothing(t *testing.T) {
	reg := NewDisabled()
	method := strings.Repeat("m", 3) // not a constant: keys must not fold
	allocs := testing.AllocsPerRun(100, func() {
		reg.Counter("calls_total", "method", method).Inc()
		reg.Gauge("depth", "method", method).Add(1)
		reg.Histogram("lat_seconds", LatencyBuckets, "method", method).ObserveSince(time.Now())
	})
	if allocs != 0 {
		t.Errorf("disabled labeled lookups: %.1f allocs/op, want 0", allocs)
	}
	if reg.Counter("a", "k", "v") != reg.Counter("b") {
		t.Error("disabled registry minted distinct counters")
	}
	var b strings.Builder
	reg.WriteText(&b)
	if b.Len() != 0 {
		t.Errorf("disabled registry dumped metrics: %q", b.String())
	}
}

func TestWriteTextFormat(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("calls_total", "method", "ping").Add(3)
	reg.Gauge("occupancy").Set(2)
	reg.Histogram("lat_seconds", []float64{1, 2}).Observe(1.5)

	var b strings.Builder
	reg.WriteText(&b)
	out := b.String()
	for _, want := range []string{
		`calls_total{method="ping"} 3`,
		"occupancy 2",
		`lat_seconds_bucket{le="1"} 0`,
		`lat_seconds_bucket{le="2"} 1`,
		`lat_seconds_bucket{le="+Inf"} 1`,
		"lat_seconds_sum 1.5",
		"lat_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteText output missing %q:\n%s", want, out)
		}
	}
}

func TestSpanParentChild(t *testing.T) {
	log := NewSpanLog(16)
	ctx, parent := log.Start(context.Background(), "outer")
	ctx2, child := log.Start(ctx, "inner")
	child.Finish(nil)
	parent.Finish(errors.New("boom"))

	if _, ok := SpanFromContext(ctx2); !ok {
		t.Fatal("child ctx carries no span")
	}
	spans := log.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	// Finish order: child first.
	if spans[0].Name != "inner" || spans[1].Name != "outer" {
		t.Fatalf("unexpected order: %v %v", spans[0].Name, spans[1].Name)
	}
	if spans[0].TraceID != spans[1].TraceID {
		t.Error("child not in parent's trace")
	}
	if spans[0].ParentID != spans[1].SpanID {
		t.Error("child's parent is not the outer span")
	}
	if spans[1].Err != "boom" {
		t.Errorf("outer Err = %q, want boom", spans[1].Err)
	}
	if spans[0].Duration <= 0 || spans[1].Duration <= 0 {
		t.Error("durations must be positive")
	}
	if got := log.ByTrace(spans[0].TraceID); len(got) != 2 {
		t.Errorf("ByTrace: %d spans, want 2", len(got))
	}
	if got := log.ByName("inner"); len(got) != 1 {
		t.Errorf("ByName(inner): %d spans, want 1", len(got))
	}
}

func TestSpanRingOverflow(t *testing.T) {
	log := NewSpanLog(4)
	for i := 0; i < 10; i++ {
		_, s := log.Start(context.Background(), "s")
		s.Finish(nil)
	}
	if log.Total() != 10 {
		t.Errorf("Total = %d, want 10", log.Total())
	}
	if got := len(log.Snapshot()); got != 4 {
		t.Errorf("retained %d spans, want 4", got)
	}
}

func TestRemoteParentPropagation(t *testing.T) {
	log := NewSpanLog(8)
	wire := SpanContext{TraceID: 77, SpanID: 99}
	ctx := WithRemoteParent(context.Background(), wire)
	_, s := log.Start(ctx, "server")
	s.Finish(nil)
	got := log.Snapshot()[0]
	if got.TraceID != 77 || got.ParentID != 99 {
		t.Errorf("span trace/parent = %d/%d, want 77/99", got.TraceID, got.ParentID)
	}
}
