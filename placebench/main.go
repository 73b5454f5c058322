// Command placebench is the placement benchmark of the Legion resource
// management reproduction. It builds a synthetic metasystem, drives
// placements through the Scheduler → Collection → Enactor → Host
// pipeline from outside the program, checks every result, and prints
// one JSON line of metrics. See README.md for usage and spec.json for
// the workloads.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
)

//go:embed spec.json
var specJSON []byte

// Workload kinds other than "in-process".
const (
	kindTCP     = "tcp"
	kindVirtual = "virtual"
)

// workload is one entry of spec.json.
type workload struct {
	Kind      string `json:"kind"`
	Hosts     int    `json:"hosts"`
	Zones     int    `json:"zones"`
	Instances int    `json:"instances"`
	// ImplArch, when set, gives the class one implementation for that
	// architecture, so the Collection query is selective.
	ImplArch string `json:"impl_arch"`
	// Generator is "irs" (IRS with NSched 4) or "random".
	Generator string `json:"generator"`
	// SnapshotTTLMs > 0 shares one scheduler.HostCache snapshot across
	// placements for that long.
	SnapshotTTLMs float64 `json:"snapshot_ttl_ms"`
	// UpdatesPerPlace is how many host.Reassess pushes run beside the
	// placements, per successful placement.
	UpdatesPerPlace int `json:"updates_per_place"`
	// RatePerS is the open-loop arrival rate: per wall second, or per
	// virtual second on the virtual clock.
	RatePerS float64 `json:"rate_per_s"`
	// LimitMs is the latency limit slo_frac counts against.
	LimitMs float64 `json:"limit_ms"`
	// Requests, LinkLatencyMs, LinkJitterMs and DeadlineMs shape the
	// virtual-clock campaign.
	Requests      int     `json:"requests"`
	LinkLatencyMs float64 `json:"link_latency_ms"`
	LinkJitterMs  float64 `json:"link_jitter_ms"`
	DeadlineMs    float64 `json:"deadline_ms"`
}

// metricDoc is one entry of spec.json's metric list.
type metricDoc struct {
	// Layer is "end-to-end" for the metrics untraced runs print; every
	// other layer is printed by traced runs.
	Layer string `json:"layer"`
	Unit  string `json:"unit"`
	Moves string `json:"moves"`
	On    string `json:"on"`
}

const endToEndLayer = "end-to-end"

type spec struct {
	Workloads map[string]workload  `json:"workloads"`
	Metrics   map[string]metricDoc `json:"metrics"`
}

func loadSpec() (spec, error) {
	var s spec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		return s, fmt.Errorf("spec.json: %w", err)
	}
	return s, nil
}

// units maps the name of every metric a run prints to its unit: the
// end-to-end metrics untraced, the per-layer metrics traced.
func (s spec) units(trace bool) map[string]string {
	out := make(map[string]string)
	for name, d := range s.Metrics {
		if (d.Layer == endToEndLayer) != trace {
			out[name] = d.Unit
		}
	}
	return out
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings of one run.
type options struct {
	seed    int64
	seconds float64
	trace   bool
}

// measured is what a workload run hands back: counts, the correctness
// verdict and raw metric values.
type measured struct {
	attempted, failed int64
	violation         error
	values            map[string]float64
}

// endToEnd fills in the end-to-end metrics: set-up time and heap, the
// share of placements that succeeded, and allocations per placement over
// the measured stretch.
func (m *measured) endToEnd(setup setupTimes, heapMB float64, measuredUse window) {
	m.values = map[string]float64{
		"setup_s":          setup.setupSeconds(),
		"setup_heap_mb":    heapMB,
		"success_frac":     ratio(float64(m.attempted-m.failed), float64(m.attempted)),
		"allocs_per_place": measuredUse.allocsPerPlace(),
	}
}

// finish attaches units, checking that exactly the metrics in units were
// measured.
func finish(m measured, units map[string]string) (result, error) {
	r := result{Correct: m.violation == nil, Attempted: m.attempted, Failed: m.failed,
		Metrics: make(map[string]metric, len(units))}
	var missing []string
	for name, unit := range units {
		v, ok := m.values[name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, name)
			continue
		}
		r.Metrics[name] = metric{Value: v, Unit: unit}
	}
	if len(missing) > 0 || len(m.values) != len(units) {
		sort.Strings(missing)
		return r, fmt.Errorf("metrics missing or not finite: %v (measured %d of %d)", missing, len(m.values), len(units))
	}
	if r.Attempted < 1 {
		return r, fmt.Errorf("no placement was attempted")
	}
	return r, nil
}

func main() {
	name := flag.String("workload", "", "workload name from spec.json")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()

	s, err := loadSpec()
	if err != nil {
		fail(err)
	}
	w, ok := s.Workloads[*name]
	if !ok {
		fail(fmt.Errorf("unknown workload %q", *name))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fail(fmt.Errorf("need --seconds >= 1 and --trace 0 or 1"))
	}
	o := options{seed: *seed, seconds: float64(*seconds), trace: *trace == 1}
	m, err := run(w, o)
	if err != nil {
		fail(err)
	}
	r, err := finish(m, s.units(o.trace))
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(r)
	if err != nil {
		fail(err)
	}
	if m.violation != nil {
		fmt.Fprintln(os.Stderr, "placebench: correctness check failed:", m.violation)
	}
	fmt.Println(string(line))
	if !r.Correct {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "placebench:", err)
	os.Exit(1)
}
