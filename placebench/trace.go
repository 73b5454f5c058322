package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"legion/internal/loid"
	"legion/internal/orb"
	"legion/internal/proto"
	"legion/internal/sched"
	"legion/internal/scheduler"
	"legion/internal/telemetry"
	"legion/internal/vclock"
)

// generateKey records schedule generation, which is not an ORB call.
var generateKey = callKey{method: "Generate"}

// callKey names one traced operation: the runtime that recorded it and
// the method called.
type callKey struct{ rt, method string }

// recorder keeps every traced duration in memory until the run ends.
type recorder struct {
	mu    sync.Mutex
	calls map[callKey][]time.Duration
}

func newRecorder() *recorder { return &recorder{calls: make(map[callKey][]time.Duration)} }

func (r *recorder) add(k callKey, d time.Duration) {
	r.mu.Lock()
	r.calls[k] = append(r.calls[k], d)
	r.mu.Unlock()
}

// trace is an orb.CallTracer: the caller is the recording runtime.
func (r *recorder) trace(caller string, _ loid.LOID, method string, d time.Duration, _ error) {
	r.add(callKey{caller, method}, d)
}

func (r *recorder) get(rt, method string) []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.calls[callKey{rt, method}]
}

// tracing switches the call tracer on every runtime and the Generator
// timing together, so a traced run can interleave untraced stretches to
// measure its own overhead.
type tracing struct {
	rec *recorder
	rts []*orb.Runtime
	on  atomic.Bool
}

func (t *tracing) set(on bool) {
	t.on.Store(on)
	for _, rt := range t.rts {
		if on {
			rt.SetTracer(t.rec.trace)
		} else {
			rt.SetTracer(nil)
		}
	}
}

// timedGen times schedule generation on the run's clock while tracing
// is on.
type timedGen struct {
	scheduler.Generator
	clock vclock.Clock
	tr    *tracing
}

func (g timedGen) Generate(ctx context.Context, env *scheduler.Env, req scheduler.Request) (sched.RequestList, error) {
	if !g.tr.on.Load() {
		return g.Generator.Generate(ctx, env, req)
	}
	t0 := g.clock.Now()
	rl, err := g.Generator.Generate(ctx, env, req)
	g.tr.rec.add(generateKey, g.clock.Since(t0))
	return rl, err
}

// layerInputs is everything the per-layer metrics are computed from.
type layerInputs struct {
	rec *recorder
	reg *telemetry.Registry
	// server hosts the metasystem's objects; sched is the runtime the
	// scheduler calls from (the client runtime over TCP).
	server, sched string
	// tracedOK counts successful placements made while tracing was on;
	// okTotal every successful placement of the deployment.
	tracedOK, okTotal      float64
	schedTries, enactTries float64 // Wrapper attempts while traced
	cacheHits, cacheMisses float64
	updates, updateSeconds float64
	// gcCPU and totalCPU are the runtime's CPU estimates, in seconds,
	// over the closed loop or the traced campaign.
	gcCPU, totalCPU float64
	// open summarises the untraced open loop (the untraced campaign on
	// the virtual clock).
	open openStats
	// peak is placements per second and untraced the resource use, both
	// over the untraced closed-loop windows or campaign.
	peak                    float64
	untraced                window
	events, eventWallSecond float64 // vclock events in the traced campaign
	overhead                float64
	setupWall               float64 // median set-up wall time, seconds
	slowdown                float64 // calibration CPU over the reference's
}

func durQ(ds []time.Duration, q float64, unit time.Duration) float64 {
	return quantile(sortedIn(ds, unit), q)
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// layerMetrics derives every per-layer metric.
func layerMetrics(in layerInputs) map[string]float64 {
	m := make(map[string]float64)
	rec, srv := in.rec, in.server
	timed := func(name, method string, unit time.Duration, withP99 bool) {
		ds := rec.get(srv, method)
		m[name+".p50"] = durQ(ds, 0.5, unit)
		if withP99 {
			m[name+".p99"] = durQ(ds, 0.99, unit)
		}
	}

	gen := rec.get(generateKey.rt, generateKey.method)
	m["scheduler.generate_ms.p50"] = durQ(gen, 0.5, time.Millisecond)
	m["scheduler.generate_ms.p99"] = durQ(gen, 0.99, time.Millisecond)
	nested := sum(rec.get(in.sched, proto.MethodQueryCollection)) + sum(rec.get(in.sched, proto.MethodGetImplementations))
	m["scheduler.self_ms_per_place"] = ratio(float64(sum(gen)-nested)/float64(time.Millisecond), in.tracedOK)
	m["scheduler.sched_attempts_per_place"] = ratio(in.schedTries, in.tracedOK)
	m["scheduler.enact_attempts_per_place"] = ratio(in.enactTries, in.tracedOK)
	m["scheduler.cache_hit_frac"] = ratio(in.cacheHits, in.cacheHits+in.cacheMisses)

	timed("collection.query_ms", proto.MethodQueryCollection, time.Millisecond, true)
	results := in.reg.Histogram("legion_collection_query_results", telemetry.SizeBuckets)
	m["collection.records_per_query"] = ratio(results.Sum(), float64(results.Count()))
	indexed := float64(in.reg.CounterValue("legion_collection_query_indexed_total"))
	scans := float64(in.reg.CounterValue("legion_collection_query_scans_total"))
	m["collection.indexed_frac"] = ratio(indexed, indexed+scans)
	timed("collection.update_us", proto.MethodUpdateCollectionEntry, time.Microsecond, true)
	m["collection.updates_per_s"] = ratio(in.updates, in.updateSeconds)

	calls := 0
	rec.mu.Lock()
	for k, ds := range rec.calls {
		if k.rt == srv && k.method != proto.MethodUpdateCollectionEntry {
			calls += len(ds)
		}
	}
	rec.mu.Unlock()
	m["orb.calls_per_place"] = ratio(float64(calls), in.tracedOK)
	over := wireOverhead(rec, in.sched, srv)
	m["orb.wire_overhead_us.p50"] = quantile(over, 0.5)
	m["orb.wire_overhead_us.p99"] = quantile(over, 0.99)

	timed("enactor.make_reservations_ms", proto.MethodMakeReservations, time.Millisecond, true)
	timed("enactor.enact_schedule_ms", proto.MethodEnactSchedule, time.Millisecond, true)
	timed("enactor.cancel_reservations_ms", proto.MethodCancelReservations, time.Millisecond, true)
	requested := float64(in.reg.CounterValue("legion_enactor_reservations_requested_total"))
	m["enactor.grant_frac"] = ratio(float64(in.reg.CounterValue("legion_enactor_reservations_granted_total")), requested)
	m["enactor.rollbacks_per_place"] = ratio(float64(in.reg.CounterValue("legion_enactor_rollbacks_total")), in.okTotal)

	timed("host.make_reservation_us", proto.MethodMakeReservation, time.Microsecond, true)
	timed("host.start_object_us", proto.MethodStartObject, time.Microsecond, true)
	timed("host.kill_object_us", proto.MethodKillObject, time.Microsecond, true)
	timed("host.cancel_reservation_us", proto.MethodCancelReservation, time.Microsecond, true)
	granted := float64(in.reg.CounterValue("legion_host_reservations_granted_total"))
	refused := float64(in.reg.CounterValue("legion_host_reservations_refused_total")) +
		float64(in.reg.CounterValue("legion_host_reservations_shed_total"))
	m["host.grant_frac"] = ratio(granted, granted+refused)

	timed("classobj.create_instance_us", proto.MethodCreateInstance, time.Microsecond, true)
	timed("classobj.destroy_instance_us", proto.MethodDestroyInstance, time.Microsecond, true)
	timed("vault.vault_ok_us", proto.MethodVaultOK, time.Microsecond, false)
	timed("vault.delete_opr_us", proto.MethodDeleteOPR, time.Microsecond, false)

	m["vclock.events_per_place"] = ratio(in.events, in.tracedOK)
	m["vclock.events_per_wall_s"] = ratio(in.events, in.eventWallSecond)
	m["runtime.gc_cpu_frac"] = ratio(in.gcCPU, in.totalCPU)
	m["runtime.cpu_ms_per_place"] = in.untraced.cpuMsPerPlace()
	m["runtime.alloc_kb_per_place"] = in.untraced.allocKBPerPlace()
	m["runtime.setup_wall_s"] = in.setupWall
	m["runtime.machine_slowdown"] = in.slowdown
	m["loadgen.place_p50_ms"] = in.open.p50
	m["loadgen.place_p99_ms"] = in.open.tail
	m["loadgen.place_p999_ms"] = in.open.p999
	m["loadgen.tail_q"] = in.open.tailQ
	m["loadgen.samples"] = float64(in.open.samples)
	m["loadgen.slo_frac"] = in.open.slo
	m["loadgen.lag_p99_ms"] = in.open.lagP99
	m["loadgen.peak_place_per_s"] = in.peak
	m["trace.overhead_frac"] = in.overhead
	return m
}

// wireOverhead estimates, for every call the scheduler-side runtime made
// to another runtime, the time spent outside the serving object: the
// client-side duration minus the server-side median of the same method,
// in microseconds, sorted. It is empty when placements run in-process.
func wireOverhead(rec *recorder, client, server string) []float64 {
	if client == server {
		return nil
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	var out []float64
	for k, ds := range rec.calls {
		if k.rt != client {
			continue
		}
		srv := rec.calls[callKey{server, k.method}]
		if len(srv) == 0 {
			continue
		}
		base := durQ(srv, 0.5, time.Microsecond)
		for _, d := range ds {
			out = append(out, float64(d)/float64(time.Microsecond)-base)
		}
	}
	return sortFloats(out)
}
