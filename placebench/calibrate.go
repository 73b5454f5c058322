package main

import (
	"fmt"
	"runtime"
	"strconv"
)

// refCalibrationCPU is about the CPU seconds calibrate took (0.13 to
// 0.16 s, median of a run's calibrations) on the 2-vCPU virtual machine
// the benchmark was built on, with nothing else running in its
// container. setup_s is set-up CPU time rescaled to that speed; the
// constant only sets its scale.
const refCalibrationCPU = 0.150

// calRecords sets the size of calibrate's heap: about 23 MB allocated,
// nearly all of it live at the end, close to the 27 MB a set-up of the
// 2000-host fleets keeps.
const calRecords = 40000

// calRecord is one of calibrate's heap objects: a name, an attribute map
// and a few links, like the host records a set-up builds.
type calRecord struct {
	name  string
	attrs map[string]string
	load  []float64
	prev  *calRecord
}

// calibrate does fixed work of the kind a set-up does (small heap
// objects in maps and slices, formatted strings, the collector running
// on a growing live heap) without calling the program. The ratio of a
// set-up's CPU time to that of the calibration just before it follows
// the set-up's cost rather than the machine's speed, as far as a
// slowdown from co-tenants hits both alike.
func calibrate() {
	recs := make([]*calRecord, 0, calRecords)
	for i := 0; i < calRecords; i++ {
		r := &calRecord{name: "host-" + strconv.Itoa(i), attrs: make(map[string]string, 8), load: make([]float64, 8)}
		for j := 0; j < 8; j++ {
			r.attrs[fmt.Sprintf("$attr_%d", j)] = strconv.Itoa(i ^ j)
			r.load[j] = float64(i*j) / 7
		}
		if i > 0 {
			r.prev = recs[i-1]
		}
		recs = append(recs, r)
	}
	runtime.KeepAlive(recs)
}
