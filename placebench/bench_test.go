package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"
)

func TestQuantileAndTail(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if got := quantile(s, 0.5); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	if got := quantile(s, 0.99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	// 100 samples: p99 has one sample beyond it, so the tail falls back
	// to the highest rank with ten beyond: the 90th value.
	if v, q := tail(s, 0.99); v != 90 || q != 0.9 {
		t.Errorf("tail(1..100, 0.99) = %v at q %v, want 90 at 0.9", v, q)
	}
	big := make([]float64, 2000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	// 2000 samples: p99 is rank 1980 with 20 beyond, reported as is.
	if v, q := tail(big, 0.99); v != 1980 || q != 0.99 {
		t.Errorf("tail(1..2000, 0.99) = %v at q %v, want 1980 at 0.99", v, q)
	}
	// Too few samples for any tail: the median.
	if v, _ := tail([]float64{1, 2, 3}, 0.99); v != 2 {
		t.Errorf("tail of 3 samples = %v, want the median 2", v)
	}
}

func TestArrivalsSeeded(t *testing.T) {
	const rate, dur = 200.0, 10 * time.Second
	a, b := arrivals(7, rate, dur), arrivals(7, rate, dur)
	if !slices.Equal(a, b) {
		t.Fatal("one seed gave two schedules")
	}
	if slices.Equal(a, arrivals(8, rate, dur)) {
		t.Fatal("two seeds gave one schedule")
	}
	if !slices.IsSorted(a) || a[len(a)-1] >= dur {
		t.Fatal("schedule not ascending within the phase")
	}
	// Poisson count over the phase: mean 2000, sd about 45.
	if n := float64(len(a)); math.Abs(n-rate*dur.Seconds()) > 200 {
		t.Errorf("%v arrivals at %v/s over %v", n, rate, dur)
	}
}

func TestSummariseOpen(t *testing.T) {
	ms := time.Millisecond
	r := openResult{
		lat:  []time.Duration{10 * ms, 20 * ms, 30 * ms, 500 * ms, 40 * ms},
		ok:   []bool{true, true, true, true, false},
		lags: []time.Duration{0, ms, 2 * ms, 3 * ms, 9 * ms},
	}
	st := summariseOpen(r, 100*ms)
	// The failed placement counts as a miss: 3 of 5 within the limit.
	if st.slo != 0.6 {
		t.Errorf("slo = %v, want 0.6", st.slo)
	}
	if st.samples != 4 || st.p50 != 20 {
		t.Errorf("samples %d p50 %v, want 4 and 20", st.samples, st.p50)
	}
	if st.lagP99 != 9 {
		t.Errorf("lag p99 = %v ms, want 9", st.lagP99)
	}
}

// TestSetupSeconds: setup_s pairs each set-up with the calibration run
// before it, so a machine that runs everything twice as slowly reports
// the same set-up time.
func TestSetupSeconds(t *testing.T) {
	quiet := setupTimes{cpu: []float64{0.20, 0.40, 0.30}, cal: []float64{0.10, 0.20, 0.30}}
	if got, want := quiet.setupSeconds(), 2*refCalibrationCPU; math.Abs(got-want) > 1e-12 {
		t.Errorf("setup_s = %v, want %v", got, want)
	}
	slow := setupTimes{cpu: []float64{0.40, 0.80, 0.60}, cal: []float64{0.20, 0.40, 0.60}}
	if a, b := quiet.setupSeconds(), slow.setupSeconds(); math.Abs(a-b) > 1e-12 {
		t.Errorf("setup_s %v on the quiet machine, %v on the slow one", a, b)
	}
	if got := slow.slowdown(); math.Abs(got-0.40/refCalibrationCPU) > 1e-12 {
		t.Errorf("slowdown = %v", got)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and spec.json in step: the
// same workloads, and every metric declared in both with one unit, as an
// end-to-end metric in both or as a per-layer one in both. TestSmoke
// checks that runs print exactly spec.json's metrics.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	s, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, documented map[string]string) {
		if len(declared) != len(documented) {
			t.Errorf("%s: %d in BENCHMARK.json, %d in spec.json", kind, len(declared), len(documented))
		}
		for _, m := range declared {
			if u, ok := documented[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s %s: unit %q in BENCHMARK.json, %q in spec.json (present %v)", kind, m.Name, m.Unit, u, ok)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, s.units(false))
	check("per_layer", bj.PerLayer, s.units(true))
	for name, d := range s.Metrics {
		if d.Layer == "" || d.Moves == "" || d.On == "" {
			t.Errorf("spec.json does not document %s", name)
		}
	}
	if len(bj.Workloads) != len(s.Workloads) {
		t.Errorf("%d workloads declared, %d in spec.json", len(bj.Workloads), len(s.Workloads))
	}
	for _, w := range bj.Workloads {
		if _, ok := s.Workloads[w.Name]; !ok {
			t.Errorf("workload %s is not in spec.json", w.Name)
		}
	}
}

// TestSmoke runs every workload briefly on a small fleet, untraced and
// traced, and requires the correctness checks to pass and every metric
// to be printed.
func TestSmoke(t *testing.T) {
	s, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range s.Workloads {
		w.Hosts = min(w.Hosts, 300)
		w.Requests = min(w.Requests, 1000)
		for _, trace := range []bool{false, true} {
			m, err := run(w, options{seed: 3, seconds: 1, trace: trace})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if m.violation != nil {
				t.Errorf("%s trace=%v: %v", name, trace, m.violation)
			}
			if _, err := finish(m, s.units(trace)); err != nil {
				t.Errorf("%s trace=%v: %v", name, trace, err)
			}
		}
	}
}

// TestVirtualReplay: two traced runs of the virtual workload from one
// seed report identical virtual latencies.
func TestVirtualReplay(t *testing.T) {
	s, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	w := s.Workloads["virtual-e12"]
	w.Hosts, w.Requests = 300, 1000
	var got [2]map[string]float64
	for i := range got {
		m, err := run(w, options{seed: 5, seconds: 1, trace: true})
		if err != nil || m.violation != nil {
			t.Fatalf("run %d: %v %v", i, err, m.violation)
		}
		got[i] = m.values
	}
	for _, k := range []string{"loadgen.place_p50_ms", "loadgen.place_p99_ms", "loadgen.place_p999_ms"} {
		if got[0][k] != got[1][k] || got[0][k] == 0 {
			t.Errorf("%s: %v then %v", k, got[0][k], got[1][k])
		}
	}
}
