package main

import (
	"crypto/sha256"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The machines benchmarks share change speed by tens of percent from one
// minute to the next (other tenants, frequency, cache pressure), and
// every wall and CPU time of a run moves with them. So a run calibrates:
// with the workload idle, it runs a fixed unit of work back to back on
// every processor for calibBurst, before set-up and before, between and
// after the segments of the timed phase. The gated time metrics are
// scaled by refUnit / (the mean unit time of the bursts around the
// window they were measured in): they read as times on a machine that does one unit
// in refUnit. A change to the program moves them; a change of the
// machine's speed moves the calibration as well and cancels.
const (
	// refUnit is the reference duration of one calibration unit: about
	// its mean on an idle 2-core x86-64 box.
	refUnit = 600 * time.Microsecond
	// calibBurst is how long one calibration burst runs units.
	calibBurst = 300 * time.Millisecond
)

// calibWork is the scratch one calibration unit runs over. The unit
// mixes the kinds of work the solver does: hashing, a branchy sort, map
// inserts and dependent loads through a slice larger than a core's
// cache. It allocates nothing.
type calibWork struct {
	buf    []byte
	floats []float64
	sorted []float64
	m      map[uint64]uint64
	next   []int32
}

func newProbeWork() *calibWork {
	rng := rand.New(rand.NewSource(1))
	w := &calibWork{
		buf:    make([]byte, 64<<10),
		floats: make([]float64, 8<<10),
		sorted: make([]float64, 8<<10),
		m:      make(map[uint64]uint64, 4<<10),
		next:   make([]int32, 1<<20),
	}
	rng.Read(w.buf)
	for i := range w.floats {
		w.floats[i] = rng.Float64()
	}
	// One cycle through every slot, so the chase never short-circuits.
	perm := rng.Perm(len(w.next))
	for i := range perm {
		w.next[perm[i]] = int32(perm[(i+1)%len(perm)])
	}
	return w
}

// unit runs one calibration unit and returns a value that depends on
// all of it, so none of it can be optimized away.
func (w *calibWork) unit() uint64 {
	sum := sha256.Sum256(w.buf)
	acc := uint64(sum[0])
	copy(w.sorted, w.floats)
	sort.Float64s(w.sorted)
	acc += uint64(w.sorted[len(w.sorted)/2] * 1e6)
	clear(w.m)
	for i := uint64(0); i < 4<<10; i++ {
		w.m[i*0x9e3779b97f4a7c15] = i
	}
	acc += uint64(len(w.m))
	j := int32(0)
	for i := 0; i < 1<<13; i++ {
		j = w.next[j]
	}
	return acc + uint64(j)
}

// calibrator times calibration units.
type calibrator struct {
	works []*calibWork
	sink  atomic.Uint64
}

// newCalibrator prepares one unit's scratch per GOMAXPROCS: a burst
// keeps every processor busy, as the workloads do, so time the machine
// takes from the process shows in the burst as it does in the workload.
func newCalibrator() *calibrator {
	c := &calibrator{}
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		c.works = append(c.works, newProbeWork())
	}
	return c
}

// burstResult is how many units a burst completed in how much wall time.
type burstResult struct {
	units int
	wall  time.Duration
}

// burst collects the heap, then runs units back to back on every
// processor for calibBurst.
func (c *calibrator) burst() burstResult {
	runtime.GC()
	var wg sync.WaitGroup
	var units atomic.Int64
	start := time.Now()
	deadline := start.Add(calibBurst)
	for _, w := range c.works {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n, acc := int64(0), uint64(0)
			for time.Now().Before(deadline) {
				acc += w.unit()
				n++
			}
			units.Add(n)
			c.sink.Add(acc)
		}()
	}
	wg.Wait()
	return burstResult{units: int(units.Load()), wall: time.Since(start)}
}

// speedScale is refUnit over the mean unit time of the bursts, counting
// each processor's share of the wall time: multiply a duration measured
// between the bursts by it to get the duration on the reference machine;
// divide a rate by it. unit is that mean unit time.
func (c *calibrator) speedScale(bursts ...burstResult) (scale float64, unit time.Duration) {
	var wall time.Duration
	units := 0
	for _, b := range bursts {
		wall += b.wall
		units += b.units
	}
	unit = wall * time.Duration(len(c.works)) / time.Duration(max(units, 1))
	return float64(refUnit) / float64(unit), unit
}
