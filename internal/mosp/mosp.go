// Package mosp solves the multi-objective shortest path problem on the
// layered DAGs produced by the WaveMin→MOSP conversion (paper §V-B,
// Algorithm 1, Fig. 9).
//
// Graph shape: one layer per sink; one vertex per feasible (sink, cell)
// assignment; every vertex of layer i has an arc from every vertex of
// layer i−1; arc weights depend only on the destination vertex (the noise
// vector of that assignment over the sample set S); arcs into the dest
// vertex carry the non-leaf baseline vector (Observation 1). A src→dest
// path therefore picks exactly one vertex per layer and its cost is the
// component-wise sum of the picked weights plus the baseline.
//
// Solvers:
//
//   - Solve: label-correcting Pareto dynamic programming with Warburton's
//     coordinate-scaling ε-approximation [33] plus an admissible incumbent
//     bound, returning the min–max (max-ordering) path.
//   - SolveGreedy: layer-by-layer greedy; used for the incumbent bound.
//   - SolveFast: the paper's ClkWaveMin-f vertex-selection heuristic.
//   - SolveExhaustive: brute force, the test oracle.
//
// The label-expansion hot loop is allocation-free in steady state: cost
// vectors live in two chunked float arenas that double-buffer across
// layers and are recycled across solves through a sync.Pool, label
// structs come from a chunked slab (stable addresses, so prev chains
// survive), round-key deduplication uses one multiply–xorshift mix per
// quantized coordinate with collision-checked equality instead of a
// string-keyed map, and the Pareto filter tests a per-label witness
// coordinate before any full dominance scan.
//
// The MaxLabels cap is an exact bounded top-k by (max, gen), where gen is
// a label's generation order in its layer. Once more than MaxLabels slots
// of the next layer are known, every candidate whose running max reaches
// the (MaxLabels+1)-th smallest slot max is certain to be cut, so it is
// dropped before its cost vector, hash, dedup entry or label struct is
// made. Each candidate first tests its parent's argmax coordinate, where
// both the incumbent bound and the cap threshold fire most often.
package mosp

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"wavemin/internal/faultinject"
	"wavemin/internal/obs"
)

// solveStats accumulates hot-loop counters. It is allocated only when the
// context carries a telemetry span, so the disabled path stays exactly as
// allocation-free as before; the loop guards are plain nil checks.
type solveStats struct {
	expanded  int64 // labels materialized (post incumbent prune)
	pruned    int64 // partial paths killed by the incumbent bound
	abandoned int64 // partial paths dropped early as certain cap cuts
	dedupHits int64 // Warburton round-key merges
	capped    int64 // layers where the MaxLabels safety valve fired
}

// drop counts a candidate dropped at coordinate value c: an incumbent
// prune from ubLim on, below it a certain cap cut (nil-safe).
func (st *solveStats) drop(c, ubLim float64) {
	if st == nil {
		return
	}
	if c >= ubLim {
		st.pruned++
	} else {
		st.abandoned++
	}
}

// flush records the counters onto the span (nil-safe).
func (st *solveStats) flush(sp *obs.Span) {
	if st == nil {
		return
	}
	sp.Count("mosp.labels_expanded", st.expanded)
	sp.Count("mosp.pruned", st.pruned)
	sp.Count("mosp.cap_abandoned", st.abandoned)
	sp.Count("mosp.dedup_hits", st.dedupHits)
	sp.Count("mosp.capped_layers", st.capped)
}

// Vertex is one assignment option in a layer.
type Vertex struct {
	// Weight is the option's noise vector over the sample set (length =
	// the graph dimension r).
	Weight []float64
	// Tag is an opaque caller identifier (e.g. index into a cell list).
	Tag int
}

// Graph is a layered MOSP instance.
type Graph struct {
	// Baseline is the weight of every arc into dest: the accumulated
	// non-leaf noise vector. May be nil (treated as zero).
	Baseline []float64
	// Layers holds the per-sink option vertices. Every layer must be
	// non-empty.
	Layers [][]Vertex
}

// Dim returns the weight dimension r.
func (g *Graph) Dim() int {
	if len(g.Baseline) > 0 {
		return len(g.Baseline)
	}
	for _, l := range g.Layers {
		for _, v := range l {
			return len(v.Weight)
		}
	}
	return 0
}

// Validate checks structural consistency: non-empty layers, uniform
// dimension, non-negative finite weights (noise values are currents).
func (g *Graph) Validate() error {
	r := g.Dim()
	if r == 0 {
		return fmt.Errorf("mosp: zero-dimensional graph")
	}
	if g.Baseline != nil && len(g.Baseline) != r {
		return fmt.Errorf("mosp: baseline dim %d != %d", len(g.Baseline), r)
	}
	for _, b := range g.Baseline {
		if b < 0 || math.IsNaN(b) || math.IsInf(b, 0) {
			return fmt.Errorf("mosp: bad baseline value %g", b)
		}
	}
	if len(g.Layers) == 0 {
		return fmt.Errorf("mosp: no layers")
	}
	for i, l := range g.Layers {
		if len(l) == 0 {
			return fmt.Errorf("mosp: layer %d empty (infeasible instance)", i)
		}
		for j, v := range l {
			if len(v.Weight) != r {
				return fmt.Errorf("mosp: layer %d vertex %d dim %d != %d", i, j, len(v.Weight), r)
			}
			for _, w := range v.Weight {
				if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
					return fmt.Errorf("mosp: layer %d vertex %d bad weight %g", i, j, w)
				}
			}
		}
	}
	return nil
}

// Solution is a src→dest path: one pick per layer.
type Solution struct {
	Picks []int     // vertex index per layer
	Cost  []float64 // exact summed vector including the baseline
	Max   float64   // max over Cost — the min–max objective value
}

func (g *Graph) solutionFor(picks []int) Solution {
	r := g.Dim()
	cost := make([]float64, r) // make zeroes; copy below covers a nil baseline
	copy(cost, g.Baseline)
	for li, pi := range picks {
		for s, w := range g.Layers[li][pi].Weight {
			cost[s] += w
		}
	}
	m := math.Inf(-1)
	for _, c := range cost {
		if c > m {
			m = c
		}
	}
	return Solution{Picks: picks, Cost: cost, Max: m}
}

// SolveGreedy picks, layer by layer, the vertex minimizing the running
// max (baseline included). Fast, and its value upper-bounds the optimum —
// used as the incumbent for Solve's pruning.
func SolveGreedy(g *Graph) (Solution, error) {
	if err := g.Validate(); err != nil {
		return Solution{}, err
	}
	r := g.Dim()
	run := make([]float64, r)
	copy(run, g.Baseline)
	picks := make([]int, len(g.Layers))
	for li, layer := range g.Layers {
		best, bestMax := -1, math.Inf(1)
		for vi, v := range layer {
			m := math.Inf(-1)
			for s := 0; s < r; s++ {
				if c := run[s] + v.Weight[s]; c > m {
					m = c
				}
			}
			if m < bestMax {
				best, bestMax = vi, m
			}
		}
		picks[li] = best
		for s := 0; s < r; s++ {
			run[s] += layer[best].Weight[s]
		}
	}
	return g.solutionFor(picks), nil
}

// fastEntry is one layer's cached best in SolveFast's lazy heap: the
// least noise-worsening M over the layer's vertices, computed against the
// running sum at some earlier round.
type fastEntry struct {
	m  float64
	li int // layer index (also the tie-break: lower layer wins)
	vi int // first vertex achieving m in layer scan order
}

func fastLess(a, b fastEntry) bool {
	return a.m < b.m || (a.m == b.m && a.li < b.li)
}

func fastSiftDown(h []fastEntry, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && fastLess(h[l], h[small]) {
			small = l
		}
		if r < len(h) && fastLess(h[r], h[small]) {
			small = r
		}
		if small == i {
			return
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}

// SolveFast implements the paper's ClkWaveMin-f (§V-C): starting from the
// non-leaf baseline, repeatedly select — over all still-unassigned layers
// and all their vertices — the vertex v with the least noise-worsening
// M(v) = max_s(sum_s + noise(v,s)), assign it, and remove its layer.
//
// Rather than rescanning every remaining layer each round (O(|S|·|L|²·W)),
// each layer's best (M, vertex) is cached in a min-heap keyed by (M,
// layer). The running sum only ever grows, so a cached M is a lower bound
// on the layer's true M; per round only the layers that surface at the
// heap top are recomputed against the current sum, and a layer whose
// recomputed M still wins the (M, layer) order is exactly the pick the
// full rescan would have made — including ties, which both orders break
// toward the lower layer index and the first vertex in scan order.
// Cancellation is checked once per selection round.
func SolveFast(ctx context.Context, g *Graph) (Solution, error) {
	if err := g.Validate(); err != nil {
		return Solution{}, err
	}
	faultinject.At(faultinject.SiteMospSolveFast)
	sp := obs.FromContext(ctx)
	var recomputes int64
	r := g.Dim()
	sum := make([]float64, r)
	copy(sum, g.Baseline)
	nl := len(g.Layers)
	picks := make([]int, nl)
	for i := range picks {
		picks[i] = -1
	}

	recompute := func(li int) (float64, int) {
		bestVi, bestM := -1, math.Inf(1)
		for vi, v := range g.Layers[li] {
			m := math.Inf(-1)
			for s := 0; s < r; s++ {
				if c := sum[s] + v.Weight[s]; c > m {
					m = c
				}
			}
			if m < bestM {
				bestVi, bestM = vi, m
			}
		}
		return bestM, bestVi
	}

	heap := make([]fastEntry, nl)
	stamp := make([]int, nl) // round at which heap entry li was computed
	for li := range g.Layers {
		m, vi := recompute(li)
		heap[li] = fastEntry{m: m, li: li, vi: vi}
	}
	for i := nl/2 - 1; i >= 0; i-- {
		fastSiftDown(heap, i)
	}

	for round := 0; round < nl; round++ {
		if err := ctx.Err(); err != nil {
			return Solution{}, err
		}
		// Settle the top: recompute stale entries (their M can only have
		// grown) until the minimum is current.
		for stamp[heap[0].li] != round {
			li := heap[0].li
			heap[0].m, heap[0].vi = recompute(li)
			if sp != nil {
				recomputes++
			}
			stamp[li] = round
			fastSiftDown(heap, 0)
		}
		e := heap[0]
		picks[e.li] = e.vi
		for s, w := range g.Layers[e.li][e.vi].Weight {
			sum[s] += w
		}
		heap[0] = heap[len(heap)-1]
		heap = heap[:len(heap)-1]
		if len(heap) > 0 {
			fastSiftDown(heap, 0)
		}
	}
	if sp != nil {
		sp.Count("mosp.fast_rounds", int64(nl))
		sp.Count("mosp.fast_recomputes", recomputes)
	}
	return g.solutionFor(picks), nil
}

// SolveExhaustive enumerates every path — the test oracle. It refuses
// instances with more than ~200k paths.
func SolveExhaustive(g *Graph) (Solution, error) {
	if err := g.Validate(); err != nil {
		return Solution{}, err
	}
	paths := 1
	for _, l := range g.Layers {
		paths *= len(l)
		if paths > 200_000 {
			return Solution{}, fmt.Errorf("mosp: exhaustive refused (%d+ paths)", paths)
		}
	}
	r := g.Dim()
	picks := make([]int, len(g.Layers))
	bestPicks := make([]int, len(g.Layers))
	bestMax := math.Inf(1)
	run := make([]float64, r)
	copy(run, g.Baseline)
	var rec func(li int)
	rec = func(li int) {
		if li == len(g.Layers) {
			m := math.Inf(-1)
			for _, c := range run {
				if c > m {
					m = c
				}
			}
			if m < bestMax {
				bestMax = m
				copy(bestPicks, picks)
			}
			return
		}
		for vi, v := range g.Layers[li] {
			picks[li] = vi
			for s, w := range v.Weight {
				run[s] += w
			}
			rec(li + 1)
			for s, w := range v.Weight {
				run[s] -= w
			}
		}
	}
	rec(0)
	return g.solutionFor(bestPicks), nil
}

// label is a partial path in the Pareto DP. Label structs are slab
// allocated (stable addresses) and their cost slices point into the
// expander's float arenas.
type label struct {
	cost   []float64 // exact, baseline included
	max    float64   // max over cost
	layer  int32     // last assigned layer
	pick   int32     // vertex picked in that layer
	gen    int32     // build order within the layer: the cap's tie-break
	argmax int32     // first coordinate holding max
	prev   *label
}

// Options tunes Solve.
type Options struct {
	// Epsilon is Warburton's approximation parameter: the returned min–max
	// value is within (1+Epsilon) of optimal (subject to MaxLabels).
	Epsilon float64
	// MaxLabels caps the label set per layer as a memory/time safety
	// valve. When hit, the MaxLabels labels with the smallest current max
	// survive, ties going to the label built first in the layer's
	// (frontier index, vertex index) scan; the ε guarantee then degrades
	// gracefully. 0 = default.
	MaxLabels int
	// WarmLabels / WarmFrontier are warm-start capacity hints from a prior
	// solve of a similar instance (ECO mode): expected label expansions and
	// final frontier size. They pre-size the label slab, the per-layer
	// frontier slice, and the dedup map — and do nothing else. No pruning
	// bound, tie-break, or cap depends on them, so the solution (and every
	// result byte derived from it) is identical with or without hints; a
	// stale hint costs memory or speed, never correctness. 0 = cold sizing.
	WarmLabels   int
	WarmFrontier int
	// Info, when non-nil, receives the solve-effort stats a later warm
	// start feeds back as hints.
	Info *SolveInfo
}

// SolveInfo reports how much work a Solve did — the numbers a warm start
// reuses as capacity hints.
type SolveInfo struct {
	Expanded int // labels materialized (post incumbent prune)
	Frontier int // labels on the final frontier
}

// DefaultMaxLabels bounds the per-layer Pareto set.
const DefaultMaxLabels = 50_000

// floatArena hands out fixed-dimension cost vectors from chunked backing
// arrays. Chunks are never reallocated, so previously returned slices
// stay valid until reset; reset recycles all chunks without freeing them.
type floatArena struct {
	chunks    [][]float64
	ci        int // index of the chunk currently being filled
	chunkSize int
}

func newFloatArena(r int) *floatArena {
	return &floatArena{chunkSize: max(1<<14, 4*r)}
}

// reuse readies a recycled (or zero) arena for dimension r. Chunks that
// hold at least four vectors are kept, reset but not cleared: every cost
// vector is written before it is read. An arena with smaller chunks is
// rebuilt for r.
func (a *floatArena) reuse(r int) {
	if a.chunkSize < 4*r {
		*a = *newFloatArena(r)
		return
	}
	a.reset()
}

func (a *floatArena) alloc(r int) []float64 {
	for {
		if a.ci >= len(a.chunks) {
			a.chunks = append(a.chunks, make([]float64, 0, a.chunkSize))
		}
		c := a.chunks[a.ci]
		if len(c)+r <= cap(c) {
			a.chunks[a.ci] = c[:len(c)+r]
			return a.chunks[a.ci][len(c) : len(c)+r : len(c)+r]
		}
		a.ci++
	}
}

// unalloc returns the most recent alloc (LIFO) to the arena — used when a
// label is pruned before being kept. Must not be interleaved with other
// allocs.
func (a *floatArena) unalloc(r int) {
	c := a.chunks[a.ci]
	a.chunks[a.ci] = c[:len(c)-r]
}

func (a *floatArena) reset() {
	for i := range a.chunks {
		a.chunks[i] = a.chunks[i][:0]
	}
	a.ci = 0
}

// expandScratch is expandLayers' per-solve working memory: the two cost
// arenas, paretoFilter's witness buffer and the cap's slot heap.
// scratchPool recycles it across solves, so a steady stream of solves
// stops paying for fresh, zeroed chunks.
type expandScratch struct {
	arenas  [2]floatArena
	witness [paretoFilterMax]int32
	slots   slotHeap
}

// slotHeap is a max-heap of slot maxes: one key per tracked slot of the
// layer being built, each at least its slot's current occupant's max.
type slotHeap []float64

func (h *slotHeap) push(m float64) {
	*h = append(*h, m)
	a := *h
	for i := len(a) - 1; i > 0; {
		p := (i - 1) / 2
		if a[p] >= a[i] {
			return
		}
		a[p], a[i] = a[i], a[p]
		i = p
	}
}

// replaceTop swaps the largest key for m, which must not exceed it.
func (h slotHeap) replaceTop(m float64) {
	h[0] = m
	for i := 0; ; {
		big := i
		if l := 2*i + 1; l < len(h) && h[l] > h[big] {
			big = l
		}
		if r := 2*i + 2; r < len(h) && h[r] > h[big] {
			big = r
		}
		if big == i {
			return
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}

var scratchPool = sync.Pool{New: func() any { return new(expandScratch) }}

// labelArena slab-allocates labels in fixed chunks so pointers remain
// stable (prev chains) while amortizing allocation to one make per chunk.
// firstChunk, when positive, sizes the initial chunk — the warm-start
// hint's only effect is fewer chunk allocations.
type labelArena struct {
	chunks     [][]label
	firstChunk int
}

const labelChunkSize = 1024

func (a *labelArena) alloc() *label {
	if n := len(a.chunks); n == 0 || len(a.chunks[n-1]) == cap(a.chunks[n-1]) {
		size := labelChunkSize
		if len(a.chunks) == 0 && a.firstChunk > size {
			size = a.firstChunk
		}
		a.chunks = append(a.chunks, make([]label, 0, size))
	}
	c := &a.chunks[len(a.chunks)-1]
	*c = append(*c, label{})
	return &(*c)[len(*c)-1]
}

// Solve finds the (1+ε)-approximate min–max path via Pareto dynamic
// programming with coordinate scaling and incumbent pruning. The context
// is checked at every layer and periodically inside the label-expansion
// loop, so even pathologically wide instances cancel promptly.
func Solve(ctx context.Context, g *Graph, opt Options) (Solution, error) {
	if err := g.Validate(); err != nil {
		return Solution{}, err
	}
	faultinject.At(faultinject.SiteMospSolve)
	if opt.Epsilon < 0 {
		return Solution{}, fmt.Errorf("mosp: negative epsilon %g", opt.Epsilon)
	}
	if opt.MaxLabels <= 0 {
		opt.MaxLabels = DefaultMaxLabels
	}
	sp := obs.FromContext(ctx)
	var st *solveStats
	if sp != nil || opt.Info != nil {
		st = &solveStats{}
	}
	if sp != nil {
		sp.Count("mosp.layers", int64(len(g.Layers)))
	}
	// Incumbent from the greedy; its value bounds the optimum from above.
	greedy, err := SolveGreedy(g)
	if err != nil {
		return Solution{}, err
	}
	frontier, release, err := expandLayers(ctx, g, opt, greedy.Max, true, st)
	defer release()
	if sp != nil {
		st.flush(sp)
	}
	if err != nil {
		return Solution{}, err
	}
	if sp != nil {
		sp.Count("mosp.frontier", int64(len(frontier)))
	}
	if opt.Info != nil {
		opt.Info.Expanded = int(st.expanded)
		opt.Info.Frontier = len(frontier)
	}
	if len(frontier) == 0 {
		// Numerical corner: everything pruned against UB. The greedy
		// solution is then optimal within tolerance.
		return greedy, nil
	}
	best := frontier[0]
	for _, lb := range frontier[1:] {
		if lb.max < best.max {
			best = lb
		}
	}
	if best.max >= greedy.Max {
		return greedy, nil
	}
	picks := make([]int, len(g.Layers))
	for lb := best; lb != nil && lb.layer >= 0; lb = lb.prev {
		picks[lb.layer] = int(lb.pick)
	}
	return g.solutionFor(picks), nil
}

// expandLayers runs the Pareto label expansion over every layer and
// returns the dest frontier (nil/empty when everything was pruned against
// the incumbent upper bound ub). Shared by Solve and paretoCount.
//
// The frontier's cost vectors live in pooled arenas: the caller must call
// release, on every path, once it has stopped reading frontier labels.
func expandLayers(ctx context.Context, g *Graph, opt Options, ub float64, sites bool, st *solveStats) (frontier []*label, release func(), err error) {
	r := g.Dim()
	// Warburton scaling: rounding each coordinate down to a multiple of δ
	// changes any path's coordinate by < |L|·δ = ε·UB ≤ ε·OPT-scale, so
	// dedup on rounded keys preserves a (1+ε)-optimal representative.
	delta := 0.0
	if opt.Epsilon > 0 && ub > 0 {
		delta = opt.Epsilon * ub / float64(len(g.Layers))
	}
	// Every kept coordinate is ≤ ub (+1e-12), so its quantized value is at
	// most ub/δ = |L|/ε. From 2⁵³ on, δ is below the spacing of the floats
	// it rounds, so dedup could merge only identical vectors — and past
	// 2⁶⁴ the uint64 conversion is out of range, which Go leaves
	// implementation-defined. Such a tiny ε is exact: solve without dedup.
	if delta > 0 && ub/delta >= 1<<53 {
		delta = 0
	}

	// Warm-start capacity hints: strictly pre-sizing. Clamped so a stale
	// or hostile hint can only waste a bounded allocation, and bounded by
	// MaxLabels since no frontier outgrows the safety valve by more than
	// one layer's expansion.
	const warmClamp = 1 << 18
	warmLabels := min(opt.WarmLabels, warmClamp)
	warmFrontier := min(opt.WarmFrontier, min(opt.MaxLabels, warmClamp))

	labels := &labelArena{firstChunk: warmLabels}
	// Cost vectors double-buffer between two arenas: the current frontier
	// reads from one while the next layer writes into the other; the swap
	// recycles the now-dead frontier costs without any per-label GC work.
	// (Only the costs are recycled — label structs persist for the prev
	// chains, which no longer need their cost vectors.)
	sc := scratchPool.Get().(*expandScratch)
	release = func() { scratchPool.Put(sc) }
	arenas := &sc.arenas
	arenas[0].reuse(r)
	arenas[1].reuse(r)
	cur := 0

	base := arenas[cur].alloc(r)
	n := copy(base, g.Baseline)
	for i := n; i < r; i++ {
		base[i] = 0 // arena memory is recycled, not zeroed
	}
	start := labels.alloc()
	*start = label{cost: base, max: maxOf(base), layer: -1, pick: -1, argmax: int32(argmax(base))}
	frontier = []*label{start}
	nextCap := 64
	if warmFrontier > nextCap {
		nextCap = warmFrontier
	}
	next := make([]*label, 0, nextCap)
	var seen map[uint64]int32
	if delta > 0 {
		seenCap := 256
		if warmFrontier > seenCap {
			seenCap = warmFrontier
		}
		seen = make(map[uint64]int32, seenCap)
	}

	// Incumbent prune: weights are non-negative, so a partial sum already
	// above UB can only grow; it is dead (ties kept to preserve the greedy
	// path itself). c ≥ ubLim ⇔ c > ub+1e-12.
	ubLim := math.Nextafter(ub+1e-12, math.Inf(1))
	// The cap runs as a bounded top-k only when no layer it cuts could
	// have been Pareto-filtered: a layer over MaxLabels ≥ paretoFilterMax
	// labels is never filtered, so dropping its certain cuts early changes
	// nothing the filter sees. Smaller caps build everything, filter, cut.
	topK := opt.MaxLabels >= paretoFilterMax
	slots := &sc.slots

	for li, layer := range g.Layers {
		if err := ctx.Err(); err != nil {
			return nil, release, err
		}
		if sites {
			faultinject.At(faultinject.SiteMospSolveLayer)
		}
		nextArena := &arenas[1-cur]
		next = next[:0]
		if delta > 0 {
			clear(seen)
		}
		// A candidate is dropped once any coordinate reaches lim: ubLim,
		// or, once MaxLabels+1 slots are tracked, the largest slot key.
		// Every tracked key bounds its slot's occupant from above (a dedup
		// merge only lowers the occupant), and a later candidate loses max
		// ties to all of them, so MaxLabels+1 slots rank ahead of any
		// candidate reaching that key: the cut takes it whether it would
		// open a slot, replace an occupant or merge. Tracking MaxLabels+1
		// rather than MaxLabels also guarantees the layer is over the cap,
		// so it is cut and sorted exactly as if every label were built.
		// (The one exception needs a true 64-bit hash collision inside
		// the layer: a dropped label can then change which colliding key
		// holds the dedup slot.)
		*slots = (*slots)[:0]
		lim := ubLim
		var gen int32
		for fi, lb := range frontier {
			if fi%1024 == 1023 {
				if err := ctx.Err(); err != nil {
					return nil, release, err
				}
			}
			a := lb.argmax
			for vi := range layer {
				v := &layer[vi]
				// The parent's argmax is where a child most often reaches
				// lim; both drops are order-free, so testing it first
				// changes no decision.
				if c := lb.cost[a] + v.Weight[a]; c >= lim {
					st.drop(c, ubLim)
					continue
				}
				cost := nextArena.alloc(r)
				m, am := math.Inf(-1), 0
				dropped := false
				for s := 0; s < r; s++ {
					c := lb.cost[s] + v.Weight[s]
					if c >= lim {
						st.drop(c, ubLim)
						dropped = true
						break
					}
					cost[s] = c
					if c > m {
						m, am = c, s
					}
				}
				if dropped {
					nextArena.unalloc(r)
					continue
				}
				if st != nil {
					st.expanded++
				}
				nl := labels.alloc()
				*nl = label{cost: cost, max: m, layer: int32(li), pick: int32(vi), gen: gen, argmax: int32(am), prev: lb}
				gen++
				if delta > 0 {
					h := hashQuantized(cost, delta)
					if idx, ok := seen[h]; ok {
						if sameQuantized(next[idx].cost, cost, delta) {
							if st != nil {
								st.dedupHits++
							}
							// Keep the better representative by replacing
							// the slot's pointer — never by overwriting the
							// stored label in place, which would alias two
							// logically distinct labels.
							if nl.max < next[idx].max {
								next[idx] = nl
							}
							continue
						}
						// True hash collision (equal hash, different
						// quantized coordinates): keep both labels; the
						// first occupant keeps the dedup slot. Costs only
						// the missed dedup, never correctness.
					} else {
						seen[h] = int32(len(next))
					}
				}
				next = append(next, nl)
				if topK {
					// A new slot. With MaxLabels+1 keys tracked, m < lim
					// is below the largest, which it replaces.
					if len(*slots) <= opt.MaxLabels {
						slots.push(m)
					} else {
						slots.replaceTop(m)
					}
					if len(*slots) > opt.MaxLabels {
						lim = (*slots)[0]
					}
				}
			}
		}
		// Pareto dominance filter (exact costs) when affordable.
		if len(next) <= paretoFilterMax {
			next = paretoFilter(next, r, sc.witness[:])
		}
		// Safety valve.
		if len(next) > opt.MaxLabels {
			if st != nil {
				st.capped++
			}
			if len(*slots) > opt.MaxLabels {
				// A slot whose key left the heap and whose occupant is
				// still above the largest key ranks behind MaxLabels+1
				// tracked slots: cut it unsorted.
				next = slices.DeleteFunc(next, func(lb *label) bool { return lb.max > lim })
			}
			slices.SortFunc(next, func(x, y *label) int {
				if c := cmp.Compare(x.max, y.max); c != 0 {
					return c
				}
				return cmp.Compare(x.gen, y.gen)
			})
			next = next[:opt.MaxLabels]
		}
		if len(next) == 0 {
			return nil, release, nil
		}
		frontier, next = next, frontier
		arenas[cur].reset()
		cur = 1 - cur
	}
	return frontier, release, nil
}

// ParetoSize reports how many labels survive at the dest layer for the
// given ε — an observability hook for the complexity experiments.
func ParetoSize(g *Graph, opt Options) (int, error) {
	if err := g.Validate(); err != nil {
		return 0, err
	}
	return paretoCount(g, opt), nil
}

func paretoCount(g *Graph, opt Options) int {
	if opt.MaxLabels <= 0 {
		opt.MaxLabels = DefaultMaxLabels
	}
	greedy, _ := SolveGreedy(g)
	frontier, release, err := expandLayers(context.Background(), g, opt, greedy.Max, false, nil)
	defer release()
	if err != nil {
		return 0
	}
	return len(frontier)
}

func maxOf(v []float64) float64 {
	m := math.Inf(-1)
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	if len(v) == 0 {
		return 0
	}
	return m
}

// hashQuantized hashes the coordinates rounded down to multiples of delta
// — the allocation-free replacement for the old string round-key. Each
// quantized coordinate is folded in with one multiply–xorshift step.
// Every step is a bijection of the running state, so vectors that differ
// in a single coordinate never collide; a true collision elsewhere costs a
// missed dedup (sameQuantized catches it), never a wrong merge.
func hashQuantized(cost []float64, delta float64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, c := range cost {
		h = (h ^ uint64(c/delta)) * 0xbf58476d1ce4e5b9
		h ^= h >> 31
	}
	return h
}

// sameQuantized reports whether two cost vectors round to the same
// Warburton key — the collision check behind hashQuantized.
func sameQuantized(a, b []float64, delta float64) bool {
	for s := range a {
		if uint64(a[s]/delta) != uint64(b[s]/delta) {
			return false
		}
	}
	return true
}

// paretoFilterMax is the largest layer paretoFilter runs on: the filter is
// quadratic, so bigger layers go straight to the MaxLabels safety valve.
const paretoFilterMax = 2048

// paretoFilter sorts labels by max and drops every label that an earlier
// kept label dominates (≤ on every coordinate, within 1e-15). Equal
// vectors dominate each other, so only the first of them is kept.
//
// witness (at least len(labels) long) holds one coordinate per kept
// label: first its argmax, then the last coordinate where it failed to
// dominate a candidate. Nearby candidates tend to fail on the same
// coordinate, so testing it first skips most full scans. exceedsAt is a
// pure predicate, so the screening changes which scans run, never which
// labels are kept or their order.
func paretoFilter(labels []*label, r int, witness []int32) []*label {
	// Sort by max ascending: a label can only be dominated by one with a
	// smaller-or-equal max, so only earlier labels need checking.
	sort.Slice(labels, func(i, j int) bool { return labels[i].max < labels[j].max })
	out := labels[:0]
	for _, cand := range labels {
		dominated := false
		for k, kept := range out {
			if w := witness[k]; kept.cost[w] > cand.cost[w]+1e-15 {
				continue
			}
			if s := exceedsAt(kept.cost, cand.cost, r); s >= 0 {
				witness[k] = int32(s)
				continue
			}
			dominated = true
			break
		}
		if !dominated {
			witness[len(out)] = cand.argmax
			out = append(out, cand)
		}
	}
	return out
}

// exceedsAt reports whether a dominates b: it returns -1 when a[s] ≤
// b[s]+1e-15 on every coordinate, and otherwise the first coordinate s
// where that fails.
func exceedsAt(a, b []float64, r int) int {
	for s := 0; s < r; s++ {
		if a[s] > b[s]+1e-15 {
			return s
		}
	}
	return -1
}

// argmax returns the index of the first largest coordinate of v.
func argmax(v []float64) int {
	best := 0
	for s, x := range v {
		if x > v[best] {
			best = s
		}
	}
	return best
}
