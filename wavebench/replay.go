package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"wavemin"
	"wavemin/internal/castore"
	"wavemin/internal/cell"
	"wavemin/internal/clocktree"
	"wavemin/internal/mosp"
	"wavemin/internal/polarity"
	"wavemin/internal/yield"
)

// polarityMaxLabels is the per-layer label cap polarity.Optimize hands
// mosp.Solve when its config leaves MaxLabels unset, as the facade does.
const polarityMaxLabels = 4000

// layerTimes is the replay's wall time per layer. The replay calls each
// layer's exported functions directly, one at a time, so every duration
// is that layer's self time.
type layerTimes struct {
	candidates time.Duration // polarity.BuildCandidates
	intervals  time.Duration // polarity.FeasibleIntervals + ordering
	zoneBuild  time.Duration // PartitionZones/LeafZones + BuildZoneInstance
	mospSolve  time.Duration // mosp.Solve
	timing     time.Duration // Tree.ComputeTiming
	peak       time.Duration // Tree.PeakCurrent
	noise      time.Duration // Grid.MeasureTreeNoise
	wall       time.Duration // the whole replay
}

func (l *layerTimes) add(o layerTimes) {
	l.candidates += o.candidates
	l.intervals += o.intervals
	l.zoneBuild += o.zoneBuild
	l.mospSolve += o.mospSolve
	l.timing += o.timing
	l.peak += o.peak
	l.noise += o.noise
	l.wall += o.wall
}

// unattributed is replay wall time no layer claimed.
func (l *layerTimes) unattributed() time.Duration {
	return l.wall - (l.candidates + l.intervals + l.zoneBuild + l.mospSolve + l.timing + l.peak + l.noise)
}

// replayOut is one tree's replay: per-layer times, the assignment it
// reached, the golden metrics of the result, and the solver effort.
type replayOut struct {
	times      layerTimes
	assignment map[int]string
	before     wavemin.Metrics
	after      wavemin.Metrics
	expanded   int64
	frontier   int64
}

// replayTree serially re-walks the facade's single-mode ClkWaveMin
// pipeline on a tree with the paper-default config, timing each
// exported call from outside: measure before, candidates, intervals,
// zones, one instance build and MOSP solve per (interval, zone), apply,
// measure after.
func replayTree(ctx context.Context, tree []byte, sp *spans, parent int) (*replayOut, error) {
	t0 := time.Now()
	root := sp.start("replay.tree", parent)
	defer sp.end(root)
	d, err := wavemin.LoadTree(bytes.NewReader(tree))
	if err != nil {
		return nil, err
	}
	cfg := wavemin.Config{}.WithDefaults()
	sizing, err := cell.DefaultLibrary().Restrict("BUF_X8", "BUF_X16", "INV_X8", "INV_X16")
	if err != nil {
		return nil, err
	}
	mode := clocktree.NominalMode
	out := &replayOut{assignment: make(map[int]string)}
	lt := &out.times

	measure := func(t *clocktree.Tree) (wavemin.Metrics, error) {
		var m wavemin.Metrics
		var tm *clocktree.Timing
		lt.timing += sp.timed("clocktree.timing", root, func() { tm = t.ComputeTiming(mode) })
		var p float64
		lt.peak += sp.timed("measure.peak", root, func() { p = t.PeakCurrent(tm) })
		if p > m.PeakCurrent {
			m.PeakCurrent = p
		}
		if s := tm.Skew(t); s > m.WorstSkew {
			m.WorstSkew = s
		}
		var v, g float64
		var err error
		lt.noise += sp.timed("powergrid.noise", root, func() { v, g, err = d.Grid.MeasureTreeNoise(ctx, t, tm) })
		if err != nil {
			return m, err
		}
		if v > m.VDDNoise {
			m.VDDNoise = v
		}
		if g > m.GndNoise {
			m.GndNoise = g
		}
		return m, nil
	}

	snap := d.Tree
	if out.before, err = measure(snap); err != nil {
		return nil, err
	}

	var cs *polarity.CandidateSet
	lt.candidates += sp.timed("polarity.candidates", root, func() { cs = polarity.BuildCandidates(snap, sizing, mode) })
	var intervals []polarity.Interval
	lt.intervals += sp.timed("polarity.intervals", root, func() {
		intervals, err = polarity.FeasibleIntervals(cs, cfg.Kappa)
		sort.SliceStable(intervals, func(i, j int) bool {
			return intervals[i].DegreeOfFreedom() > intervals[j].DegreeOfFreedom()
		})
		if cfg.MaxIntervals > 0 && len(intervals) > cfg.MaxIntervals {
			intervals = intervals[:cfg.MaxIntervals]
		}
	})
	if err != nil {
		return nil, err
	}
	var tm *clocktree.Timing
	lt.timing += sp.timed("clocktree.timing", root, func() { tm = snap.ComputeTiming(mode) })
	var zones []polarity.Zone
	lt.zoneBuild += sp.timed("polarity.zones", root, func() { zones = polarity.LeafZones(polarity.PartitionZones(snap, cfg.ZoneSize)) })
	leafIndex := make(map[clocktree.NodeID]int)
	for i, leaf := range cs.Leaves() {
		leafIndex[leaf] = i
	}

	var best polarity.Assignment
	bestPeak := 0.0
	for ii := range intervals {
		a := make(polarity.Assignment)
		peak := 0.0
		for _, zone := range zones {
			var zi *polarity.ZoneInstance
			lt.zoneBuild += sp.timed("polarity.zone_build", root, func() {
				zi, err = polarity.BuildZoneInstance(snap, tm, cs, zone, &intervals[ii], leafIndex, cfg.Samples)
			})
			if err != nil {
				return nil, err
			}
			var sol mosp.Solution
			var info mosp.SolveInfo
			lt.mospSolve += sp.timed("mosp.solve", root, func() {
				sol, err = mosp.Solve(ctx, zi.Graph, mosp.Options{Epsilon: cfg.Epsilon, MaxLabels: polarityMaxLabels, Info: &info})
			})
			if err != nil {
				return nil, err
			}
			out.expanded += int64(info.Expanded)
			out.frontier += int64(info.Frontier)
			for li, leaf := range zone.Leaves {
				a[leaf] = cs.ByLeaf[leaf][zi.Graph.Layers[li][sol.Picks[li]].Tag].Cell
			}
			peak = max(peak, sol.Max)
		}
		if best == nil || peak < bestPeak {
			best, bestPeak = a, peak
		}
	}
	if best == nil {
		return nil, fmt.Errorf("replay: no feasible interval")
	}
	work := snap.Clone()
	polarity.Apply(work, best)
	for _, leaf := range work.Leaves() {
		out.assignment[int(leaf)] = work.Node(leaf).Cell.Name
	}
	if out.after, err = measure(work); err != nil {
		return nil, err
	}
	lt.wall = time.Since(t0)
	return out, nil
}

// checkReplay compares a replay against the tree's reference: the same
// leaf assignment and bit-identical before/after metrics.
func checkReplay(out *replayOut, ref *reference) error {
	if len(out.assignment) != len(ref.assignment) {
		return fmt.Errorf("replay assigned %d leaves, reference %d", len(out.assignment), len(ref.assignment))
	}
	for leaf, c := range ref.assignment {
		if out.assignment[leaf] != c {
			return fmt.Errorf("replay assigned leaf %d %s, reference %s", leaf, out.assignment[leaf], c)
		}
	}
	if out.before != ref.result.Before || out.after != ref.result.After {
		return fmt.Errorf("replay metrics %+v → %+v differ from reference %+v → %+v",
			out.before, out.after, ref.result.Before, ref.result.After)
	}
	return nil
}

// requestPath times the facade calls a request makes before and after
// the solver — body decode, tree load, cache key, result encode — as the
// median of reps repetitions each.
type requestPath struct {
	decode, loadTree, cacheKey, encode time.Duration
}

func timeRequestPath(body []byte, res *wavemin.Result, reps int, sp *spans, parent int) (requestPath, error) {
	var ds [4][]float64
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for i := 0; i < reps; i++ {
		var wb wireBody
		ds[0] = append(ds[0], float64(sp.timed("wavemin.decode", parent, func() {
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			note(dec.Decode(&wb))
		})))
		var d *wavemin.Design
		ds[1] = append(ds[1], float64(sp.timed("wavemin.load_tree", parent, func() {
			var err error
			d, err = wavemin.LoadTree(bytes.NewReader(wb.Tree))
			note(err)
		})))
		if d == nil {
			break
		}
		ds[2] = append(ds[2], float64(sp.timed("wavemin.cache_key", parent, func() {
			_, err := d.CacheKey(wavemin.Config{})
			note(err)
		})))
		ds[3] = append(ds[3], float64(sp.timed("wavemin.result_encode", parent, func() {
			_, err := json.Marshal(res)
			note(err)
		})))
	}
	if firstErr != nil {
		return requestPath{}, firstErr
	}
	return requestPath{
		decode:   time.Duration(median(ds[0])),
		loadTree: time.Duration(median(ds[1])),
		cacheKey: time.Duration(median(ds[2])),
		encode:   time.Duration(median(ds[3])),
	}, nil
}

// replayYield times the two halves of a yield run in-process —
// candidate generation and the Monte Carlo race on a local runner — and
// returns the report bytes for comparison with the reference.
func replayYield(ctx context.Context, tree []byte, seed int64, sp *spans, parent int) (cands, mc time.Duration, report []byte, err error) {
	p := yieldParams(seed)
	var cs []yield.Candidate
	var rejected int
	cands = sp.timed("yield.candidates", parent, func() {
		cs, rejected, err = yield.GenerateCandidates(ctx, tree, wavemin.Config{}, nil, p)
	})
	if err != nil {
		return 0, 0, nil, err
	}
	var rep *yield.Report
	mc = sp.timed("yield.mc", parent, func() {
		rep, err = yield.Run(ctx, cs, p, rejected, nil, &yield.LocalRunner{})
	})
	if err != nil {
		return 0, 0, nil, err
	}
	report, err = json.Marshal(rep)
	return cands, mc, report, err
}

// timeStore times result-store puts and gets of a result blob on a
// fresh castore with fsync on, as the fleet's batch policy configures
// it: the write a cacheable dispatched completion makes before it is
// acknowledged. The timed phases send only noCache requests, which skip
// the store, so this is where the durable tier gets measured.
func timeStore(dir string, blob []byte, reps int, sp *spans, parent int) (put, get time.Duration, err error) {
	st, err := castore.Open(dir, castore.Options{Sync: true})
	if err != nil {
		return 0, 0, err
	}
	defer st.Close()
	var puts, gets []float64
	for i := 0; i < reps; i++ {
		sum := sha256.Sum256([]byte(fmt.Sprintf("wavebench-store-%d", i)))
		key := hex.EncodeToString(sum[:])
		puts = append(puts, float64(sp.timed("castore.put", parent, func() {
			if perr := st.Put(key, blob); perr != nil && err == nil {
				err = perr
			}
		})))
		gets = append(gets, float64(sp.timed("castore.get", parent, func() {
			if got, ok := st.Get(key); (!ok || !bytes.Equal(got, blob)) && err == nil {
				err = fmt.Errorf("castore: get %s did not return the stored bytes", key)
			}
		})))
	}
	if err != nil {
		return 0, 0, err
	}
	return time.Duration(median(puts)), time.Duration(median(gets)), st.Close()
}
