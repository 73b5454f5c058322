package main

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"legion/internal/sched"
	"legion/internal/scheduler"
	"legion/internal/sim"
)

// setups is how many times a run builds its deployment; setup_s is a
// median over them. The last deployment is measured; the virtual
// workload runs its determinism probe on each of the others.
const setups = 9

// Phase shares of the measured seconds on the wall clock; the closed
// loop takes the rest.
const (
	warmShare = 0.1
	openShare = 0.45 // traced runs only
	// closedWindow is the closed-loop sampling window; the peak rate is
	// the median over untraced windows.
	closedWindow = time.Second
)

func run(w workload, o options) (measured, error) {
	if w.Kind == kindVirtual {
		return runVirtual(w, o)
	}
	return runWall(w, o)
}

func generator(w workload) scheduler.Generator {
	if w.Generator == "random" {
		return scheduler.Random{}
	}
	return scheduler.IRS{NSched: 4}
}

// bench drives placements against one deployment and tallies them.
type bench struct {
	d    *deployment
	w    workload
	seed int64
	gen  scheduler.Generator
	req  scheduler.Request
	tr   *tracing // nil in untraced runs
	next atomic.Uint64

	attempted, failed, ok   atomic.Int64
	tracedOK                atomic.Int64
	schedTries, enactTries  atomic.Int64 // while traced
	violationOnce           sync.Once
	violation, firstFailure error
	failureOnce             sync.Once
}

func newBench(d *deployment, w workload, o options) *bench {
	b := &bench{d: d, w: w, seed: o.seed, gen: generator(w),
		req: scheduler.Request{
			Classes: []scheduler.ClassRequest{{Class: d.class, Count: w.Instances}},
			Res:     sched.ReservationSpec{Share: true, Reuse: true, Duration: time.Hour},
		}}
	if w.SnapshotTTLMs > 0 {
		d.env.Cache = scheduler.NewHostCache(d.env.RT.Clock(), msDur(w.SnapshotTTLMs))
	}
	if o.trace {
		b.tr = &tracing{rec: newRecorder(), rts: d.runtimes()}
		b.gen = timedGen{Generator: b.gen, clock: d.env.RT.Clock(), tr: b.tr}
	}
	return b
}

func (b *bench) violate(err error) {
	if err != nil {
		b.violationOnce.Do(func() { b.violation = err })
	}
}

// place runs one placement through the Figure 9 Wrapper, checks it and
// tears it down. Latency runs from due to the Wrapper's return.
func (b *bench) place(due time.Time) (time.Duration, bool) {
	env := b.d.env
	env.Rand = rand.New(stream(b.seed, 1, b.next.Add(1)))
	b.attempted.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	out, err := scheduler.Wrapper{}.Run(ctx, &env, b.d.enactor, b.gen, b.req)
	cancel()
	lat := time.Since(due)
	traced := b.tr != nil && b.tr.on.Load()
	if traced {
		b.schedTries.Add(int64(out.SchedAttempts))
		b.enactTries.Add(int64(out.EnactAttempts))
	}
	if err != nil || !out.Success {
		b.failed.Add(1)
		b.failureOnce.Do(func() { b.firstFailure = fmt.Errorf("placement failed: %v", err) })
		return lat, false
	}
	if err := b.d.checkOutcome(&out, b.w.Instances); err != nil {
		b.violate(err)
	}
	if err := b.d.teardown(&out); err != nil {
		b.violate(err)
	}
	b.ok.Add(1)
	if traced {
		b.tracedOK.Add(1)
	}
	return lat, true
}

// arrivals is the open-loop schedule: offsets from the phase start of
// Poisson arrivals at rate per second, for dur, drawn from seed.
func arrivals(seed int64, rate float64, dur time.Duration) []time.Duration {
	rng := rand.New(stream(seed, 2))
	mean := float64(time.Second) / rate
	var out []time.Duration
	for t := time.Duration(rng.ExpFloat64() * mean); t < dur; t += time.Duration(rng.ExpFloat64() * mean) {
		out = append(out, t)
	}
	return out
}

// openResult holds one open-loop phase, per offered placement.
type openResult struct {
	lat  []time.Duration // from due time to completion
	ok   []bool
	lags []time.Duration // how late each arrival was launched
}

// openLoop offers placements on the seeded schedule regardless of how
// many are in flight, and waits for all of them.
func (b *bench) openLoop(dur time.Duration) openResult {
	sched := arrivals(b.seed, b.w.RatePerS, dur)
	r := openResult{lat: make([]time.Duration, len(sched)), ok: make([]bool, len(sched)),
		lags: make([]time.Duration, len(sched))}
	var wg sync.WaitGroup
	start := time.Now()
	for i, off := range sched {
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		r.lags[i] = time.Since(due)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r.lat[i], r.ok[i] = b.place(due)
		}(i)
	}
	wg.Wait()
	return r
}

// openStats summarises an open-loop phase: success latency p50, p99 and
// p99.9 (each falling back as tail does; tailQ is the quantile the p99
// really is), the share of offered placements that succeeded within the
// limit, and the generator's p99 lag.
type openStats struct {
	p50, tail, tailQ, p999, slo, lagP99 float64
	samples                             int
}

func summariseOpen(r openResult, limit time.Duration) openStats {
	var good []time.Duration
	within := 0
	for i, l := range r.lat {
		if !r.ok[i] {
			continue
		}
		good = append(good, l)
		if l <= limit {
			within++
		}
	}
	s := sortedIn(good, time.Millisecond)
	st := openStats{p50: quantile(s, 0.5), samples: len(s),
		slo:    ratio(float64(within), float64(len(r.lat))),
		lagP99: quantile(sortedIn(r.lags, time.Millisecond), 0.99)}
	st.tail, st.tailQ = tail(s, 0.99)
	st.p999, _ = tail(s, 0.999)
	return st
}

// window is the resource use of a stretch of a run: a closed-loop
// sampling window or a virtual campaign.
type window struct {
	ok         int64 // successful placements
	secs       float64
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	traced     bool
}

func (w *window) add(o window) {
	w.ok += o.ok
	w.secs += o.secs
	w.cpu += o.cpu
	w.mallocs += o.mallocs
	w.allocBytes += o.allocBytes
}

func (w window) cpuMsPerPlace() float64 {
	return ratio(float64(w.cpu)/float64(time.Millisecond), float64(w.ok))
}

func (w window) allocsPerPlace() float64 { return ratio(float64(w.mallocs), float64(w.ok)) }

func (w window) allocKBPerPlace() float64 {
	return ratio(float64(w.allocBytes)/1024, float64(w.ok))
}

// closedLoop runs one client per CPU back to back for dur, sampling
// resource use per window. With alternate set in a traced run, even
// windows run traced and odd ones untraced, so the trace's own overhead
// can be measured; otherwise the loop runs untraced.
func (b *bench) closedLoop(dur time.Duration, alternate bool) []window {
	var stop atomic.Bool
	var wg sync.WaitGroup
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				b.place(time.Now())
			}
		}()
	}
	n := max(1, int(dur/closedWindow))
	wins := make([]window, n)
	for k := range wins {
		traced := b.tr != nil && alternate && k%2 == 0
		if b.tr != nil {
			b.tr.set(traced)
		}
		u0, ok0 := readUsage(), b.ok.Load()
		time.Sleep(closedWindow)
		wins[k] = readUsage().since(u0)
		wins[k].ok, wins[k].traced = b.ok.Load()-ok0, traced
	}
	stop.Store(true)
	wg.Wait()
	if b.tr != nil {
		b.tr.set(false)
	}
	return wins
}

// startUpdates starts pushing host state round-robin with host.Reassess,
// UpdatesPerPlace pushes for every successful placement, so the write
// load per placement is the same however fast placements run. The
// returned stop function waits for the stream to end and reports the
// updates made and the seconds it ran.
func (b *bench) startUpdates() (stop func() (int, float64)) {
	if b.w.UpdatesPerPlace <= 0 {
		return func() (int, float64) { return 0, 0 }
	}
	hosts := b.d.fleet.Hosts
	quit := make(chan struct{})
	done := make(chan struct{})
	var n int
	var secs float64
	go func() {
		defer close(done)
		ctx := context.Background()
		start := time.Now()
		for {
			select {
			case <-quit:
				secs = time.Since(start).Seconds()
				return
			case <-time.After(time.Millisecond):
			}
			for due := int(b.ok.Load()) * b.w.UpdatesPerPlace; n < due; n++ {
				hosts[n%len(hosts)].Reassess(ctx)
			}
		}
	}()
	return func() (int, float64) {
		close(quit)
		<-done
		return n, secs
	}
}

// setupTimes are the seconds each set-up of a run took, in process CPU
// time (user plus system, garbage collection included) and wall time,
// and the CPU seconds of the calibration run just before it.
type setupTimes struct{ cpu, wall, cal []float64 }

// setupSeconds is setup_s: the median over set-ups of set-up CPU time
// over calibration CPU time, in seconds at the reference machine's
// speed.
func (t setupTimes) setupSeconds() float64 {
	r := make([]float64, len(t.cpu))
	for i := range r {
		r[i] = ratio(t.cpu[i], t.cal[i])
	}
	return median(r) * refCalibrationCPU
}

// slowdown is how much slower than the reference machine this one ran
// the calibration, median over set-ups.
func (t setupTimes) slowdown() float64 { return median(t.cal) / refCalibrationCPU }

// deployAll builds the deployment setups times, keeping the last, and
// returns the set-up times. Each set-up follows a calibration run.
// probe, when set, runs on every earlier deployment before it is closed.
func deployAll(w workload, seed int64, probe func(*deployment)) (*deployment, setupTimes, error) {
	var times setupTimes
	for i := 0; i < setups; i++ {
		// Collect the previous deployment and the calibration's records
		// first, so their garbage is charged to neither.
		runtime.GC()
		u0 := readUsage()
		calibrate()
		times.cal = append(times.cal, readUsage().since(u0).cpu.Seconds())
		runtime.GC()
		u0 = readUsage()
		d, err := deploy(w, seed)
		if err != nil {
			return nil, times, err
		}
		use := readUsage().since(u0)
		times.cpu = append(times.cpu, use.cpu.Seconds())
		times.wall = append(times.wall, use.secs)
		if i == setups-1 {
			return d, times, nil
		}
		if probe != nil {
			probe(d)
		}
		d.close()
	}
	panic("unreachable")
}

func runWall(w workload, o options) (measured, error) {
	d, setup, err := deployAll(w, o.seed, nil)
	if err != nil {
		return measured{}, err
	}
	defer d.close()
	heap := liveHeapMB()
	b := newBench(d, w, o)
	total := time.Duration(o.seconds * float64(time.Second))
	stopUpdates := b.startUpdates()

	// Warm-up: caches fill and connections open before timing.
	warm := time.Duration(warmShare * float64(total))
	b.closedLoop(warm, false)
	b.audit()
	var open openResult
	openDur := time.Duration(0)
	if o.trace {
		openDur = time.Duration(openShare * float64(total))
		open = b.openLoop(openDur)
		b.audit()
	}
	gc0, tot0 := gcCPU()
	wins := b.closedLoop(total-warm-openDur, true)
	gc1, tot1 := gcCPU()
	updates, updateSecs := stopUpdates()
	b.audit()

	m := measured{attempted: b.attempted.Load(), failed: b.failed.Load(), violation: b.violation}
	if b.firstFailure != nil {
		fmt.Fprintln(os.Stderr, "placebench:", b.firstFailure)
	}
	var on, off window
	var rates []float64
	for _, win := range wins {
		if win.traced {
			on.add(win)
		} else {
			off.add(win)
			rates = append(rates, float64(win.ok)/win.secs)
		}
	}
	if !o.trace {
		m.endToEnd(setup, heap, off)
		return m, nil
	}

	st := summariseOpen(open, msDur(w.LimitMs))
	in := b.layerInputs()
	in.updates, in.updateSeconds = float64(updates), updateSecs
	in.gcCPU, in.totalCPU = gc1-gc0, tot1-tot0
	in.open = st
	in.peak = median(rates)
	in.untraced = off
	in.setupWall, in.slowdown = median(setup.wall), setup.slowdown()
	in.overhead = ratio(on.cpuMsPerPlace(), off.cpuMsPerPlace()) - 1
	m.values = layerMetrics(in)
	return m, nil
}

// audit runs the conservation check after a drain.
func (b *bench) audit() {
	if err := b.d.audit(); err != nil {
		b.violate(err)
	}
}

func (b *bench) layerInputs() layerInputs {
	in := layerInputs{rec: b.tr.rec, reg: b.d.reg,
		server: b.d.server.Domain(), sched: b.d.env.RT.Domain(),
		tracedOK: float64(b.tracedOK.Load()), okTotal: float64(b.ok.Load()),
		schedTries: float64(b.schedTries.Load()), enactTries: float64(b.enactTries.Load())}
	if c := b.d.env.Cache; c != nil {
		h, m := c.Stats()
		in.cacheHits, in.cacheMisses = float64(h), float64(m)
	}
	return in
}

// --- virtual clock ---

// probeRequests is the size of the determinism probe's campaign, run
// from one seed on every discarded deployment.
const probeRequests = 2000

// campaignResult is one sim.Fleet.Drive campaign.
type campaignResult struct {
	window
	lat          []time.Duration // virtual
	offered      int
	hits, misses int64
}

// campaign drives an open-loop Poisson campaign on the virtual clock
// through sim.Fleet.Drive, checking every successful placement before
// Drive tears it down.
func (b *bench) campaign(requests int, seed int64) campaignResult {
	d, w := b.d, b.w
	class, ok := d.ms.Class("Worker")
	if !ok {
		panic("placebench: class Worker not defined")
	}
	cfg := sim.DriverConfig{
		Clock:       d.vc,
		Rate:        w.RatePerS,
		Requests:    requests,
		Arrivals:    sim.Poisson,
		Seed:        seed,
		Instances:   w.Instances,
		Deadline:    msDur(w.DeadlineMs),
		SnapshotTTL: msDur(w.SnapshotTTLMs),
		Generator:   b.gen,
		Observe: func(_ int, out *scheduler.Outcome) {
			if err := d.checkOutcome(out, w.Instances); err != nil {
				b.violate(err)
			}
			if b.tr != nil && b.tr.on.Load() {
				b.schedTries.Add(int64(out.SchedAttempts))
				b.enactTries.Add(int64(out.EnactAttempts))
			}
		},
	}
	u0 := readUsage()
	var res *sim.DriverResult
	d.vc.Run(func() { res = d.fleet.Drive(context.Background(), class, cfg) })
	u1 := readUsage()
	b.audit()
	if res.Succeeded != res.Offered {
		b.violate(fmt.Errorf("virtual campaign: %d of %d placements succeeded (%d shed, %d failed)",
			res.Succeeded, res.Offered, res.Shed, res.Failed))
	}
	b.attempted.Add(int64(res.Offered))
	b.failed.Add(int64(res.Offered - res.Succeeded))
	b.ok.Add(int64(res.Succeeded))
	c := campaignResult{window: u1.since(u0), lat: res.Latencies, offered: res.Offered,
		hits: res.CacheHits, misses: res.CacheMisses}
	c.ok = int64(res.Succeeded)
	return c
}

func runVirtual(w workload, o options) (measured, error) {
	// Determinism probe: the same seeded campaign on two fresh
	// deployments must give identical virtual latencies.
	var first []time.Duration
	var probeViolation error
	probe := func(d *deployment) {
		pb := newBench(d, w, options{seed: o.seed})
		c := pb.campaign(min(probeRequests, w.Requests), o.seed)
		switch {
		case pb.violation != nil:
			probeViolation = cmp.Or(probeViolation, pb.violation)
		case first == nil:
			first = c.lat
		case !slices.Equal(first, c.lat):
			probeViolation = cmp.Or(probeViolation, errors.New(
				"virtual campaign is not deterministic: two deployments from one seed gave different latencies"))
		}
	}
	d, setup, err := deployAll(w, o.seed, probe)
	if err != nil {
		return measured{}, err
	}
	defer d.close()
	heap := liveHeapMB()
	b := newBench(d, w, o)
	b.violate(probeViolation)
	start := time.Now()
	total := time.Duration(o.seconds * float64(time.Second))

	if o.trace {
		// A short warm-up, then untraced, then traced: the vclock event
		// trace cannot be switched off once started, so the traced
		// campaign comes last.
		b.campaign(min(probeRequests, w.Requests), o.seed)
		u := b.campaign(w.Requests, o.seed)
		b.tr.set(true)
		d.vc.StartTrace()
		gc0, tot0 := gcCPU()
		t := b.campaign(w.Requests, o.seed+1)
		gc1, tot1 := gcCPU()
		b.tr.set(false)
		events := len(d.vc.Trace())

		in := b.layerInputs()
		in.tracedOK = float64(t.ok)
		in.cacheHits, in.cacheMisses = float64(t.hits), float64(t.misses)
		in.events, in.eventWallSecond = float64(events), t.secs
		in.gcCPU, in.totalCPU = gc1-gc0, tot1-tot0
		in.open = summariseOpen(u.asOpen(), msDur(w.LimitMs))
		in.peak = float64(u.ok) / u.secs
		in.untraced = u.window
		in.setupWall, in.slowdown = median(setup.wall), setup.slowdown()
		in.overhead = ratio(t.cpuMsPerPlace(), u.cpuMsPerPlace()) - 1
		m := measured{attempted: b.attempted.Load(), failed: b.failed.Load(), violation: b.violation}
		m.values = layerMetrics(in)
		return m, nil
	}

	// Campaigns run back to back while another fits in the time left.
	var all window
	for n := 0; n == 0 || time.Since(start).Seconds()+all.secs/float64(n) < total.Seconds(); n++ {
		all.add(b.campaign(w.Requests, o.seed+int64(n)).window)
	}
	m := measured{attempted: b.attempted.Load(), failed: b.failed.Load(), violation: b.violation}
	m.endToEnd(setup, heap, all)
	return m, nil
}

// asOpen views a campaign as an open-loop phase: its successful
// latencies, then one failed entry per placement that did not succeed.
func (c campaignResult) asOpen() openResult {
	r := openResult{lat: append([]time.Duration(nil), c.lat...), ok: make([]bool, c.offered)}
	for i := range c.lat {
		r.ok[i] = true
	}
	r.lat = append(r.lat, make([]time.Duration, c.offered-len(c.lat))...)
	return r
}
