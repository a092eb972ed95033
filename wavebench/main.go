package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"wavemin/internal/obs"
)

func main() { os.Exit(run(os.Args[1:])) }

// outDir, relative to the checkout the benchmark runs in, holds span
// files and the durable tier's temporary data directories.
var outDir = filepath.Join(".bench_build", "wavebench")

// setupReps is how many times an end-to-end run sets up; setup_s is the
// median.
const setupReps = 3

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects the metrics of a run and prints them: one aligned
// line each, then the JSON summary.
type report struct {
	metrics map[string]metric
	lines   []string
	errs    []string
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

// set records a metric that goes into the JSON summary.
func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.note(name, v, unit, "")
}

// note prints a figure that is not part of the JSON summary.
func (r *report) note(name string, v float64, unit, extra string) {
	r.lines = append(r.lines, strings.TrimRight(fmt.Sprintf("%-28s %14.4f %-6s %s", name, v, unit, extra), " "))
}

func (r *report) fail(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// latency reports a class's p50 (into the summary when inSummary) and
// its tail, each with the sample count, when the class has samples.
func (r *report) latency(prefix string, xs []float64, inSummary bool) {
	if len(xs) == 0 {
		return
	}
	name, m := prefix+"_p50_ms", median(xs)
	if inSummary {
		r.metrics[name] = metric{Value: m, Unit: "ms"}
	}
	r.note(name, m, "ms", fmt.Sprintf("n=%d", len(xs)))
	if p, v, ok := tail(xs); ok {
		r.note(prefix+"_tail_ms", v, "ms", fmt.Sprintf("p%g of n=%d", p, len(xs)))
	}
}

func run(args []string) int {
	fs := flag.NewFlagSet("wavebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: ispd-cold, eco-mix or fleet-yield")
	seed := fs.Int64("seed", 1, "workload seed: the same seed sends the same requests")
	seconds := fs.Int("seconds", 24, "length of the timed phase")
	traceFlag := fs.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
	split := fs.String("split", "tune", `input split: "tune", or "heldout" for inputs drawn from a seed space never used while tuning`)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	switch {
	case !ok:
		logf("unknown workload %q", *name)
		return 2
	case *split != "tune" && *split != "heldout":
		logf("unknown split %q", *split)
		return 2
	case *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1):
		logf("bad -seconds or -trace")
		return 2
	}
	tmpRoot, err := newTmpRoot(outDir)
	if err != nil {
		logf("%v", err)
		return 1
	}
	defer os.RemoveAll(tmpRoot)

	fmt.Printf("workload=%s seed=%d split=%s seconds=%d trace=%d\n", w.name, *seed, *split, *seconds, *traceFlag)
	for _, l := range fingerprint() {
		fmt.Println(l)
	}
	dur := time.Duration(*seconds) * time.Second
	// A hung request must not outlive the run: fail well inside the time
	// a harness gives one run, even if a client is stuck polling.
	watchdog := time.AfterFunc(dur+150*time.Second, func() {
		logf("watchdog: run exceeded %v; aborting", dur+150*time.Second)
		os.Exit(3)
	})
	defer watchdog.Stop()
	var sum *summary
	if *traceFlag == 1 {
		sum, err = runTraced(w, *split, *seed, dur, tmpRoot)
	} else {
		sum, err = runEndToEnd(w, *split, *seed, dur, tmpRoot)
	}
	if err != nil {
		logf("%v", err)
		return 1
	}
	blob, err := json.Marshal(sum)
	if err != nil {
		logf("summary: %v", err)
		return 1
	}
	fmt.Println(string(blob))
	if !sum.Correct {
		return 1
	}
	return 0
}

// finish prints the report lines and builds the summary.
func (r *report) finish(attempted, failed int) *summary {
	for _, l := range r.lines {
		fmt.Println(l)
	}
	for _, e := range r.errs {
		fmt.Println("FAIL " + e)
	}
	correct := len(r.errs) == 0 && failed == 0
	for name, m := range r.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Printf("FAIL metric %s has no value\n", name)
			correct = false
			r.metrics[name] = metric{Value: 0, Unit: m.Unit}
		}
	}
	return &summary{Correct: correct, Attempted: max(attempted, 1), Failed: failed, Metrics: r.metrics}
}

func printInputs(e *env) {
	fmt.Printf("schedule_digest=%s clients=%d circuit=%s\n", e.in.digest(), e.w.clients, e.w.circuit)
}

// segments is how many parts the timed phase of an end-to-end run is
// cut into, with a calibration burst between each two, so the scaling
// follows a change of the machine's speed within the phase.
const segments = 4

// runEndToEnd sets up several times, then runs the timed phase and
// reports the end-to-end metrics. Calibration bursts before set-up,
// before the phase, between its segments and after it scale the time
// metrics to the reference machine; the unscaled figures are printed
// beside.
func runEndToEnd(w workload, split string, seed int64, dur time.Duration, tmpRoot string) (*summary, error) {
	ctx := context.Background()
	cal := newCalibrator()
	pre := cal.burst()
	e, setupTimes, err := setupTimed(ctx, setupReps, w, split, seed, tmpRoot)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer e.svc.close()
	printInputs(e)
	bursts := []burstResult{cal.burst()}
	var segs []*phase
	for i := 0; i < segments; i++ {
		segs = append(segs, e.run(dur/segments, false, nil, 0))
		bursts = append(bursts, cal.burst())
	}

	r := newReport()
	setupScale, setupUnit := cal.speedScale(pre, bursts[0])
	r.note("calib.setup_unit_ms", float64(setupUnit)/1e6, "ms", fmt.Sprintf("%d units", pre.units+bursts[0].units))
	var scales, unitsMs []float64
	var each []string
	for i := range segs {
		scale, unit := cal.speedScale(bursts[i], bursts[i+1])
		scales = append(scales, scale)
		unitsMs = append(unitsMs, float64(unit)/1e6)
		each = append(each, fmt.Sprintf("%.4f", float64(unit)/1e6))
	}
	r.note("calib.phase_unit_ms", median(unitsMs), "ms", fmt.Sprintf("median of segments %s; reference %v", strings.Join(each, " "), refUnit))
	r.set("setup_s", median(setupTimes)*setupScale, "s")
	r.note("raw.setup_s", median(setupTimes), "s", "unscaled")
	attempted, failed := endToEnd(r, segs, scales)
	// Printed, not in the summary: a high-water mark of a small heap, it
	// spreads too much between runs (IQR 14% of median on fleet-yield) to
	// gate.
	r.note("rss_peak_mb", rssPeakMB(), "MB", "")
	for _, p := range segs {
		p.checkInto(r, e)
	}
	return r.finish(attempted, failed), nil
}

// endToEnd adds the throughput, latency, quality and cost figures of a
// phase run as segments to r, each segment's times multiplied by its
// scale, and returns the requests attempted and failed.
func endToEnd(r *report, segs []*phase, scales []float64) (attempted, failed int) {
	var jobs int
	var wall, refWall, cpu, refCPU float64
	var alloc uint64
	var lat [numClasses][]float64
	var rawCold, peaks, yields []float64
	for i, p := range segs {
		k := scales[i]
		jobs += p.jobs()
		attempted += p.tally.attempted
		failed += p.tally.failed
		wall += p.elapsed.Seconds()
		refWall += p.elapsed.Seconds() * k
		c := (p.proc1.cpu - p.proc0.cpu).Seconds()
		cpu += c
		refCPU += c * k
		alloc += p.proc1.totalAlloc - p.proc0.totalAlloc
		for _, s := range p.samples {
			ms := float64(s.latency) / 1e6
			lat[s.class] = append(lat[s.class], ms*k)
			switch s.class {
			case classCold:
				rawCold = append(rawCold, ms)
				peaks = append(peaks, s.verdict.peakReduction)
			case classYield:
				yields = append(yields, s.verdict.yieldPct)
			}
		}
	}
	n := float64(jobs)
	r.set("jobs_per_s", n/refWall, "1/s")
	r.note("raw.jobs_per_s", n/wall, "1/s", "unscaled")
	r.latency("cold", lat[classCold], true)
	r.note("raw.cold_p50_ms", median(rawCold), "ms", "unscaled")
	r.latency("hit", lat[classHit], false)
	r.latency("eco", lat[classEco], false)
	r.latency("yield", lat[classYield], false)
	r.note("failed_ratio", ratio(int64(failed), int64(attempted)), "ratio", fmt.Sprintf("%d of %d", failed, attempted))
	r.set("peak_reduction_pct", mean(peaks), "%")
	if len(yields) > 0 {
		r.note("yield_pct", mean(yields), "%", "")
	}
	r.set("cpu_s_per_job", refCPU/n, "s")
	r.note("raw.cpu_s_per_job", cpu/n, "s", "unscaled")
	r.set("alloc_mb_per_job", float64(alloc)/(1<<20)/n, "MB")
	return attempted, failed
}

// traceCounters sums every counter of a job trace by name.
func traceCounters(blob []byte) (map[string]int64, error) {
	evs, err := obs.Decode(bytes.NewReader(blob))
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64)
	for _, ev := range evs {
		for k, v := range ev.Counters {
			out[k] += v
		}
	}
	return out, nil
}

// runTraced runs one phase in which every second request of each class
// is traced, then replays every workload tree layer by layer, and
// reports the per-layer metrics.
func runTraced(w workload, split string, seed int64, dur time.Duration, tmpRoot string) (*summary, error) {
	ctx := context.Background()
	sp := newSpans()
	root := sp.start("run", 0)
	id := sp.start("setup", root)
	e, _, err := setupTimed(ctx, 1, w, split, seed, tmpRoot)
	sp.end(id)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer e.svc.close()
	printInputs(e)
	r := newReport()

	id = sp.start("phase", root)
	p := e.run(dur, true, sp, id)
	sp.end(id)
	p.checkInto(r, e)

	// Solver effort, from the service's own trace of a traced cold job.
	var counts map[string]int64
	for _, s := range p.samples {
		if s.class != classCold || !s.traced {
			continue
		}
		blob, err := e.svc.jobTrace(s.view.JobID)
		if err == nil {
			counts, err = traceCounters(blob)
		}
		if err != nil {
			r.fail("trace of job %s: %v", s.view.JobID, err)
		}
		break
	}
	if counts == nil {
		r.fail("no traced cold job to read solver counts from")
		counts = map[string]int64{}
	}

	// Replay every tree the workload sends, serially, from outside.
	id = sp.start("replay", root)
	trees := append([][]byte{e.in.cold}, e.in.deltas...)
	refs := append([]*reference{e.g.cold}, e.g.deltas...)
	var lt layerTimes
	for i, t := range trees {
		rep, err := replayTree(ctx, t, sp, id)
		if err != nil {
			return nil, fmt.Errorf("replay tree %d: %w", i, err)
		}
		if err := checkReplay(rep, refs[i]); err != nil {
			r.fail("replay tree %d does not reach the service's assignment: %v", i, err)
		}
		if i == 0 && (rep.expanded != counts["mosp.labels_expanded"] || rep.frontier != counts["mosp.frontier"]) {
			r.fail("replay expanded %d labels (frontier %d), the service's trace %d (frontier %d)",
				rep.expanded, rep.frontier, counts["mosp.labels_expanded"], counts["mosp.frontier"])
		}
		lt.add(rep.times)
	}
	path, err := timeRequestPath(e.b.get(request{class: classCold}, false), &e.g.cold.result, 15, sp, id)
	if err != nil {
		return nil, fmt.Errorf("request path: %w", err)
	}
	var yCands, yMC time.Duration
	if len(e.in.yieldSeeds) > 0 {
		var rep []byte
		yCands, yMC, rep, err = replayYield(ctx, e.in.cold, e.in.yieldSeeds[0], sp, id)
		if err != nil {
			return nil, fmt.Errorf("yield replay: %w", err)
		}
		if !bytes.Equal(rep, e.g.yields[0]) {
			r.fail("yield replay report differs from the reference")
		}
	}
	storePut, storeGet, err := timeStore(filepath.Join(tmpRoot, "castore"), e.g.cold.bytes, 20, sp, id)
	if err != nil {
		return nil, fmt.Errorf("store replay: %w", err)
	}
	sp.end(id)

	perTree := func(d time.Duration) float64 { return float64(d) / 1e6 / float64(len(trees)) }
	r.set("mosp.solve_ms", perTree(lt.mospSolve), "ms")
	r.set("polarity.candidates_ms", perTree(lt.candidates), "ms")
	r.set("polarity.intervals_ms", perTree(lt.intervals), "ms")
	r.set("polarity.zone_build_ms", perTree(lt.zoneBuild), "ms")
	r.set("clocktree.timing_ms", perTree(lt.timing), "ms")
	r.set("measure.peak_ms", perTree(lt.peak), "ms")
	r.set("powergrid.noise_ms", perTree(lt.noise), "ms")
	r.set("layer.unattributed_ms", perTree(lt.unattributed()), "ms")
	r.note("replay.wall_ms", perTree(lt.wall), "ms", fmt.Sprintf("per tree, %d trees", len(trees)))

	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	r.set("wavemin.decode_ms", ms(path.decode), "ms")
	r.set("wavemin.load_tree_ms", ms(path.loadTree), "ms")
	r.set("wavemin.cache_key_ms", ms(path.cacheKey), "ms")
	r.set("wavemin.result_encode_ms", ms(path.encode), "ms")

	for _, c := range []string{"mosp.labels_expanded", "mosp.pruned", "mosp.dedup_hits", "mosp.capped_layers",
		"mosp.frontier", "polarity.zones", "polarity.intervals_found", "zone.candidates"} {
		r.set(c, float64(counts[c]), "count")
	}
	r.set("mosp.frontier_ratio", ratio(counts["mosp.frontier"], counts["mosp.labels_expanded"]), "ratio")

	serving(r, p)

	s0, s1 := p.srv0, p.srv1
	c0, c1 := p.coord0, p.coord1
	r.set("rescache.hit_ratio", ratio(s1.CacheHits-s0.CacheHits, s1.CacheHits-s0.CacheHits+s1.CacheMisses-s0.CacheMisses), "ratio")
	r.set("rescache.evictions", float64(s1.CacheStats.Evictions-s0.CacheStats.Evictions), "count")
	reused, resolved := s1.EcoZonesReused-s0.EcoZonesReused, s1.EcoZonesResolved-s0.EcoZonesResolved
	r.set("eco.reuse_ratio", ratio(reused, reused+resolved), "ratio")
	r.set("server.solver_runs", float64(s1.SolverRuns-s0.SolverRuns), "count")
	r.set("jobq.rejected", float64(s1.QueueStats.Rejected-s0.QueueStats.Rejected), "count")
	r.set("castore.put_ms", ms(storePut), "ms")
	r.set("castore.get_ms", ms(storeGet), "ms")
	r.set("dispatch.leases", float64(c1.Leases-c0.Leases), "count")
	r.set("dispatch.requeues", float64(c1.Requeues-c0.Requeues), "count")
	r.set("dispatch.stale_rejected", float64(c1.StaleRejected-c0.StaleRejected), "count")
	r.set("dispatch.completions_per_lease", ratio(c1.Completions-c0.Completions, c1.Leases-c0.Leases), "ratio")
	r.set("yield.chunks", float64(s1.YieldChunks-s0.YieldChunks), "count")
	r.set("yield.samples_saved", float64(s1.YieldSamplesSaved-s0.YieldSamplesSaved), "count")
	r.set("yield.early_stops", float64(s1.YieldEarlyStops-s0.YieldEarlyStops), "count")
	r.set("yield.candidates_ms", ms(yCands), "ms")
	r.set("yield.mc_ms", ms(yMC), "ms")

	jobs := float64(p.jobs())
	r.set("gc.cycles_per_job", float64(p.proc1.numGC-p.proc0.numGC)/jobs, "count")
	r.set("gc.pause_ms", float64(p.proc1.pauseNS-p.proc0.pauseNS)/1e6, "ms")
	traceOverhead(r, p)

	sp.end(root)
	spanPath := filepath.Join(outDir, fmt.Sprintf("spans-%s-%s-%d.jsonl", w.name, split, seed))
	if err := sp.write(spanPath); err != nil {
		return nil, err
	}
	r.lines = append(r.lines, fmt.Sprintf("spans=%d written to %s", sp.count(), spanPath))
	return r.finish(p.tally.attempted, p.tally.failed), nil
}

// traceOverhead reports the median latency of traced cold requests
// minus that of untraced ones from the same phase. A phase too short to
// hold both reads 0.
func traceOverhead(r *report, p *phase) {
	on := p.latencies(func(s sample) bool { return s.class == classCold && s.traced })
	off := p.latencies(func(s sample) bool { return s.class == classCold && !s.traced })
	extra := fmt.Sprintf("traced n=%d minus untraced n=%d cold requests", len(on), len(off))
	d, pct := 0.0, 0.0
	if len(on) > 0 && len(off) > 0 {
		d = median(on) - median(off)
		pct = 100 * d / median(off)
	} else {
		extra = "too few cold requests to compare"
	}
	r.metrics["trace.overhead_ms"] = metric{Value: d, Unit: "ms"}
	r.note("trace.overhead_ms", d, "ms", extra)
	r.set("trace.overhead_pct", pct, "%")
}

// serving derives the queue-wait, run and client-overhead split of the
// solver requests of a phase from their job-view timestamps.
func serving(r *report, p *phase) {
	var wait, runMs, over []float64
	for _, s := range p.samples {
		sub, e1 := time.Parse(time.RFC3339Nano, s.view.SubmittedAt)
		st, e2 := time.Parse(time.RFC3339Nano, s.view.StartedAt)
		fin, e3 := time.Parse(time.RFC3339Nano, s.view.FinishedAt)
		if e1 != nil || e2 != nil || e3 != nil {
			continue // cache hits never start
		}
		wait = append(wait, float64(st.Sub(sub))/1e6)
		runMs = append(runMs, float64(fin.Sub(st))/1e6)
		over = append(over, float64(s.latency-fin.Sub(sub))/1e6)
	}
	r.set("server.queue_wait_ms", median(wait), "ms")
	r.set("server.run_ms", median(runMs), "ms")
	r.set("client.overhead_ms", median(over), "ms")
}

// ratio is num/den, or 0 when nothing was counted.
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
