package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"legion/internal/core"
	"legion/internal/host"
	"legion/internal/loid"
	"legion/internal/orb"
	"legion/internal/proto"
	"legion/internal/resilient"
	"legion/internal/scheduler"
	"legion/internal/sim"
	"legion/internal/telemetry"
	"legion/internal/vclock"
)

// deployment is one built metasystem, ready to take placements.
type deployment struct {
	ms    *core.Metasystem
	fleet *sim.Fleet
	reg   *telemetry.Registry
	vc    *vclock.Virtual // nil on the wall clock
	hosts map[loid.LOID]*host.Host
	// server is the metasystem's runtime; client is the separate
	// runtime placements are driven from over TCP, nil in-process.
	server, client *orb.Runtime
	// env is the scheduler environment placements copy, on the client
	// runtime when there is one.
	env     scheduler.Env
	enactor loid.LOID
	class   loid.LOID
}

// runtimes lists every runtime a tracer must be installed on.
func (d *deployment) runtimes() []*orb.Runtime {
	if d.client != nil {
		return []*orb.Runtime{d.server, d.client}
	}
	return []*orb.Runtime{d.server}
}

func (d *deployment) close() {
	if d.client != nil {
		_ = d.client.Close()
	}
	_ = d.ms.Close()
}

// deploy builds the workload's fleet, defines its class and, for the
// TCP workload, serves the metasystem on a loopback listener and binds a
// client runtime to it through the directory lookup, as legion-run does.
// Everything it builds is drawn from seed.
func deploy(w workload, seed int64) (*deployment, error) {
	d := &deployment{reg: telemetry.NewRegistry()}
	opts := core.Options{Seed: seed, Metrics: d.reg}
	if w.Kind == kindVirtual {
		d.vc = vclock.NewVirtualAt(time.Unix(0, 0))
		opts.Clock = d.vc
		opts.Retry = resilient.Policy{
			MaxAttempts: 2, BaseDelay: 5 * time.Millisecond,
			Budget: 5 * time.Second, AttemptTimeout: 2 * time.Second,
			Clock: d.vc, JitterRand: resilient.NewLockedRand(seed),
		}
	}
	d.ms = core.New("bench", opts)
	d.server = d.ms.Runtime()

	var impls []proto.Implementation
	if w.ImplArch != "" {
		impls = []proto.Implementation{{Arch: w.ImplArch}}
	}
	class := d.ms.DefineClass("Worker", impls)
	rng := rand.New(stream(seed, 0))
	zones := make([]string, w.Zones)
	for i := range zones {
		zones[i] = fmt.Sprintf("z%d", i+1)
	}
	d.fleet = sim.Build(d.ms, rng, fleetSpecs(rng, w.Hosts, zones))
	d.hosts = make(map[loid.LOID]*host.Host, len(d.fleet.Hosts))
	for _, h := range d.fleet.Hosts {
		d.hosts[h.LOID()] = h
	}
	if w.LinkLatencyMs > 0 {
		d.server.SetLatency(msDur(w.LinkLatencyMs), msDur(w.LinkJitterMs))
	}
	d.env = *d.ms.Env()
	d.enactor = d.ms.Enactor.LOID()
	d.class = class.LOID()
	if w.Kind != kindTCP {
		return d, nil
	}

	addr, err := d.ms.ListenAndServe("127.0.0.1:0")
	if err != nil {
		d.close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	d.client = orb.NewRuntime("client")
	d.client.SetMetrics(telemetry.NewRegistry())
	d.client.BindDomain(d.ms.Domain(), addr)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := d.client.Call(ctx, proto.DirectoryLOID(d.ms.Domain()), proto.MethodLookupServices, nil)
	if err != nil {
		d.close()
		return nil, fmt.Errorf("directory lookup: %w", err)
	}
	dir := res.(proto.ServicesReply)
	classL, ok := dir.Classes["Worker"]
	if !ok || dir.Enactor.IsNil() || dir.Collection.IsNil() {
		d.close()
		return nil, fmt.Errorf("directory lookup: incomplete reply %+v", dir)
	}
	d.env = scheduler.Env{RT: d.client, Collection: dir.Collection}
	d.enactor = dir.Enactor
	d.class = classL
	return d, nil
}

// fleetSpecs draws n hosts with sim.RandomSpecs and then evens out the
// archetypes, so that each makes up n/6 of the fleet (give or take one)
// in a seeded order, while zones and loads stay as drawn. With a plain
// draw the share of hosts a selective class matches moved by about 7%
// between seeds, and so did the size of its Collection queries and the
// allocations per placement over TCP.
func fleetSpecs(rng *rand.Rand, n int, zones []string) []sim.HostSpec {
	specs := sim.RandomSpecs(rng, n, zones...)
	var kinds []sim.HostSpec
	seen := make(map[sim.HostSpec]bool)
	for _, s := range specs {
		s.Zone, s.Load = "", 0
		if !seen[s] {
			seen[s] = true
			kinds = append(kinds, s)
		}
	}
	for i, p := range rng.Perm(n) {
		k := kinds[p%len(kinds)]
		k.Zone, k.Load = specs[i].Zone, specs[i].Load
		specs[i] = k
	}
	return specs
}

func msDur(ms float64) time.Duration { return time.Duration(ms * float64(time.Millisecond)) }

// audit is the conservation check after a drain: every placement has
// been torn down, so no host may hold a reservation or an instance.
func (d *deployment) audit() error {
	leaked, running := 0, 0
	for _, h := range d.fleet.Hosts {
		leaked += h.ActiveReservations()
		running += h.RunningCount()
	}
	if leaked != 0 || running != 0 {
		return fmt.Errorf("conservation audit: %d reservations and %d instances left after drain", leaked, running)
	}
	return nil
}

// checkOutcome verifies a successful placement: the requested number of
// instances, each running on the host its mapping resolved to.
func (d *deployment) checkOutcome(out *scheduler.Outcome, want int) error {
	got := 0
	for j, insts := range out.Instances {
		if j >= len(out.Feedback.Resolved) {
			return fmt.Errorf("placement %d: %d instance groups for %d resolved mappings",
				out.RequestID, len(out.Instances), len(out.Feedback.Resolved))
		}
		h := d.hosts[out.Feedback.Resolved[j].Host]
		for _, inst := range insts {
			got++
			if h == nil || !h.IsRunning(inst) {
				return fmt.Errorf("placement %d: instance %v is not running on %v",
					out.RequestID, inst, out.Feedback.Resolved[j].Host)
			}
		}
	}
	if got != want {
		return fmt.Errorf("placement %d: %d instances, want %d", out.RequestID, got, want)
	}
	return nil
}

// teardown destroys a placement's instances and releases its
// reservations through the runtime placements are driven from.
func (d *deployment) teardown(out *scheduler.Outcome) error {
	rt := d.env.RT
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for j, insts := range out.Instances {
		for _, inst := range insts {
			if _, err := rt.Call(ctx, out.Feedback.Resolved[j].Class,
				proto.MethodDestroyInstance, proto.ObjectArgs{Object: inst}); err != nil {
				return fmt.Errorf("destroy %v: %w", inst, err)
			}
		}
	}
	if _, err := rt.Call(ctx, d.enactor, proto.MethodCancelReservations,
		proto.CancelReservationsArgs{RequestID: out.RequestID}); err != nil {
		return fmt.Errorf("cancel reservations of %d: %w", out.RequestID, err)
	}
	return nil
}
