package orb

import (
	"context"
	"testing"
	"time"

	"legion/internal/telemetry"
)

// callPathAllocBudget is the allocation budget of one remote call over
// a loopback TCP connection, both runtimes included: the server's
// decoded argument and handler goroutine, the client's decoded result,
// and the server's per-call context.
const callPathAllocBudget = 6

// TestCallPathAllocBudget holds a whole remote call — payload codec,
// request/response framing, pending-call table, server dispatch,
// telemetry — to callPathAllocBudget, in the style of proto's
// TestCodecAllocBudget. The call carries a deadline, so the server
// derives its per-call context too.
func TestCallPathAllocBudget(t *testing.T) {
	if raceEnabled || testing.CoverMode() != "" {
		t.Skip("the race detector and coverage instrumentation allocate")
	}
	for _, tc := range []struct {
		name string
		reg  func() *telemetry.Registry
	}{
		{"metrics-disabled", telemetry.NewDisabled},
		{"metrics-enabled", telemetry.NewRegistry},
	} {
		t.Run(tc.name, func(t *testing.T) {
			server := NewRuntime("srv")
			server.SetMetrics(tc.reg())
			obj := &codecEchoObj{l: server.Mint("Echo")}
			server.Register(obj)
			addr, err := server.ListenAndServe("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer server.Close()
			client := NewRuntime("cli")
			client.SetMetrics(tc.reg())
			defer client.Close()
			client.Bind(obj.LOID(), addr)

			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			var arg any = benchMsg{Domain: "zone-1", Class: "Worker", ID: 42, Load: 0.5}
			call := func() {
				res, err := client.Call(ctx, obj.LOID(), "echo", arg)
				if err != nil {
					t.Fatal(err)
				}
				if res.(benchMsg).ID != 42 {
					t.Fatalf("echo returned %v", res)
				}
			}
			for i := 0; i < 100; i++ { // warm pools, method tables, handles
				call()
			}
			allocs := testing.AllocsPerRun(500, call)
			if allocs > callPathAllocBudget {
				t.Errorf("remote call: %.1f allocs/op, budget %d", allocs, callPathAllocBudget)
			}
			t.Logf("remote call: %.2f allocs/op", allocs)
		})
	}
}
