package sim

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"legion/internal/core"
	"legion/internal/resilient"
	"legion/internal/sched"
	"legion/internal/telemetry"
	"legion/internal/vclock"
)

func TestPercentileNearestRank(t *testing.T) {
	seq := func(n int) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = time.Duration(i + 1)
		}
		return out
	}
	cases := []struct {
		name string
		lat  []time.Duration
		q    float64
		want time.Duration
	}{
		{"empty", nil, 0.99, 0},
		{"n=1", []time.Duration{7}, 0.5, 7},
		{"p50 of 1..3", []time.Duration{3, 1, 2}, 0.50, 2},
		{"p99 of 1..50", seq(50), 0.99, 50},
		{"p99 of 1..100", seq(100), 0.99, 99},
		{"p999 of 1..1000", seq(1000), 0.999, 999},
	}
	for _, c := range cases {
		r := &DriverResult{Latencies: c.lat}
		if got := r.Percentile(c.q); got != c.want {
			t.Errorf("%s: Percentile(%v) = %d, want %d", c.name, c.q, got, c.want)
		}
	}
}

// TestDriveUniformStormConserves drives an admission-controlled site past
// its capacity on the virtual clock with uniform arrivals and cycling
// priorities, and checks the open-loop schedule, the outcome accounting
// and that the teardown leaves the site empty.
func TestDriveUniformStormConserves(t *testing.T) {
	vc := vclock.NewVirtual()
	ms := core.New("uva", core.Options{
		Seed:           7,
		Metrics:        telemetry.NewRegistry(),
		Clock:          vc,
		MaxInFlight:    2,
		AdmissionQueue: 4,
		ShedWatermark:  0.8,
		Retry: resilient.Policy{
			MaxAttempts: 2, BaseDelay: time.Millisecond,
			Budget: 2 * time.Second, AttemptTimeout: time.Second,
			JitterRand: resilient.NewLockedRand(7),
		},
	})
	class := ms.DefineClass("Worker", nil)
	f := Build(ms, rand.New(rand.NewSource(7)), UniformSpecs(2, 4))
	// ~7 calls of 5ms per placement against 2 admission slots: far below
	// the offered 200/s, so the gate must shed.
	ms.Runtime().SetLatency(5*time.Millisecond, time.Millisecond)

	const requests = 50
	interval := 5 * time.Millisecond // 1/200 s
	prios := []int{0, 0, 0, 1}
	var mu sync.Mutex
	var start time.Time
	fired := make([]time.Duration, 0, requests)
	offeredPrio := make(map[int]int)
	cfg := DriverConfig{
		Clock:       vc,
		Rate:        200,
		Requests:    requests,
		Arrivals:    Uniform,
		Seed:        3,
		Deadline:    250 * time.Millisecond,
		SnapshotTTL: -1,
		Spec: func(i int) sched.ReservationSpec {
			p := prios[i%len(prios)]
			mu.Lock()
			fired = append(fired, vc.Since(start))
			offeredPrio[p]++
			mu.Unlock()
			return sched.ReservationSpec{Share: true, Reuse: true, Duration: time.Hour, Priority: p}
		},
	}
	var res *DriverResult
	var resv, running int
	vc.Run(func() {
		start = vc.Now()
		res = Drive(context.Background(), ms, class, cfg)
		for _, h := range f.Hosts {
			resv += h.ActiveReservations()
			running += h.RunningCount()
		}
	})
	t.Logf("offered=%d ok=%d shed=%d failed=%d shedByPrio=%v",
		res.Offered, res.Succeeded, res.Shed, res.Failed, res.ShedByPriority)

	if res.Offered != requests || len(fired) != requests {
		t.Fatalf("offered %d, Spec called %d times, want %d", res.Offered, len(fired), requests)
	}
	slices.Sort(fired)
	for i, at := range fired {
		if want := time.Duration(i) * interval; at != want {
			t.Fatalf("arrival %d fired at +%v, want +%v", i, at, want)
		}
	}
	if got := res.Succeeded + res.Shed + res.Failed; got != res.Offered {
		t.Errorf("accounting: ok %d + shed %d + failed %d = %d, want %d",
			res.Succeeded, res.Shed, res.Failed, got, res.Offered)
	}
	if res.Shed == 0 {
		t.Error("saturated gate shed nothing")
	}
	sum := 0
	for p, n := range res.ShedByPriority {
		if n > offeredPrio[p] {
			t.Errorf("priority %d: %d shed of %d offered", p, n, offeredPrio[p])
		}
		sum += n
	}
	if sum != res.Shed {
		t.Errorf("ShedByPriority %v sums to %d, want Shed %d", res.ShedByPriority, sum, res.Shed)
	}
	if resv != 0 || running != 0 {
		t.Errorf("after Drive: %d reservations held, %d instances running", resv, running)
	}
}
