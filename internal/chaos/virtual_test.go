package chaos

import (
	"testing"
	"time"

	"legion/internal/core"
	"legion/internal/resilient"
	"legion/internal/telemetry"
	"legion/internal/vclock"
)

// TestVirtualStormDeterministicTrace is the determinism proof for the
// virtual-time mode: two back-to-back runs of the same fixed-seed storm
// (LEGION_CHAOS_SEED respected) must produce byte-identical event
// traces. Under the discrete-event engine execution is fully serialized
// — one runnable goroutine at a time, events fired in (time, seq) order
// — so every timer, retry backoff, link delay, and context expiry lands
// at the same virtual instant in both runs; any divergence means
// nondeterminism leaked into the pipeline (an unseeded RNG, a wall-time
// read, an unserialized wakeup).
func TestVirtualStormDeterministicTrace(t *testing.T) {
	seed := SeedFromEnv(5)
	run := func() []string {
		vc := vclock.NewVirtual()
		opts := core.Options{
			Seed:    seed,
			Metrics: telemetry.NewRegistry(),
			Clock:   vc,
			Retry: resilient.Policy{
				MaxAttempts: 2, BaseDelay: time.Millisecond,
				Budget: 2 * time.Second, AttemptTimeout: time.Second,
				Clock: vc,
				// Per-run jitter source: the process-global jitter RNG
				// would otherwise carry state from run to run.
				JitterRand: resilient.NewLockedRand(seed),
			},
		}
		w, err := NewWorld(seed, opts, SiteSpec{Domain: "uva", Hosts: 4})
		if err != nil {
			t.Fatalf("world: %v", err)
		}
		defer w.Close()
		site := w.Sites[0]
		w.Slow(site, 2*time.Millisecond, time.Millisecond)

		vc.StartTrace()
		vc.Run(func() {
			res := storm(w, site, 500, 100*time.Millisecond, 200*time.Millisecond, 0, 0, 1)
			if res.Offered == 0 {
				t.Error("storm offered nothing")
			}
			if resv, running := w.Quiesce(site, time.Second); resv+running != 0 {
				t.Errorf("leaked %d reservations + %d instances", resv, running)
			}
		})
		// Capture before Close: shutdown interleaves with the engine
		// nondeterministically and is not part of the proof.
		return vc.Trace()
	}

	start := time.Now()
	t1 := run()
	t2 := run()
	wall := time.Since(start)

	if len(t1) == 0 {
		t.Fatal("empty trace")
	}
	if len(t1) != len(t2) {
		t.Fatalf("trace lengths differ: %d vs %d (seed %d)", len(t1), len(t2), seed)
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("traces diverge at event %d (seed %d):\n  run1: %s\n  run2: %s",
				i, seed, t1[i], t2[i])
		}
	}
	if wall > 5*time.Second {
		t.Errorf("both storm replays took %v wall, want < 5s", wall)
	}
	t.Logf("trace: %d events, byte-identical across runs, %v wall (seed %d)", len(t1), wall, seed)
}
