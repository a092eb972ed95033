package mosp

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
)

// dupGraph builds a graph where many partial paths land on identical (or
// identically quantized) cost vectors, so the ε-dedup map merges heavily
// and prev chains run through merged slots — the shape that exposed the
// old `*old = *nl` aliasing corruption.
func dupGraph(rng *rand.Rand, layers, width, dim int) *Graph {
	g := &Graph{Baseline: make([]float64, dim)}
	for s := range g.Baseline {
		g.Baseline[s] = float64(rng.Intn(4))
	}
	for i := 0; i < layers; i++ {
		var l []Vertex
		for j := 0; j < width; j++ {
			w := make([]float64, dim)
			for s := range w {
				// Small integer grid → frequent exact-duplicate sums.
				w[s] = float64(rng.Intn(3))
			}
			l = append(l, Vertex{Weight: w, Tag: j})
		}
		g.Layers = append(g.Layers, l)
	}
	return g
}

// TestDedupCollisionPicksStayConsistent is the regression test for the
// shared-label mutation bug: when two labels round to the same Warburton
// key, keeping the better representative must not rewrite a label struct
// that other labels already reference as prev. We force heavy dedup
// (integer weights + coarse ε) and require that the returned Picks both
// reproduce the reported cost exactly and stay within the ε guarantee of
// the exhaustive optimum.
func TestDedupCollisionPicksStayConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		g := dupGraph(rng, 3+rng.Intn(4), 2+rng.Intn(3), 2+rng.Intn(3))
		opt, err := SolveExhaustive(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, eps := range []float64{0.05, 0.3, 1.0} {
			sol, err := Solve(context.Background(), g, Options{Epsilon: eps})
			if err != nil {
				t.Fatal(err)
			}
			if len(sol.Picks) != len(g.Layers) {
				t.Fatalf("trial %d eps=%g: incomplete picks %v", trial, eps, sol.Picks)
			}
			// The picks must reproduce the reported solution exactly: a
			// corrupted prev chain yields picks whose true cost disagrees
			// with the label the solver thought it was returning.
			re := g.solutionFor(sol.Picks)
			if math.Abs(re.Max-sol.Max) > 1e-9 {
				t.Fatalf("trial %d eps=%g: picks %v recompute to %g, solver reported %g",
					trial, eps, sol.Picks, re.Max, sol.Max)
			}
			for s := range re.Cost {
				if math.Abs(re.Cost[s]-sol.Cost[s]) > 1e-9 {
					t.Fatalf("trial %d eps=%g: cost mismatch at %d: %v vs %v",
						trial, eps, s, re.Cost, sol.Cost)
				}
			}
			if sol.Max > opt.Max*(1+eps)+1e-9 || sol.Max < opt.Max-1e-9 {
				t.Fatalf("trial %d eps=%g: %g outside [%g, %g·(1+ε)]",
					trial, eps, sol.Max, opt.Max, opt.Max)
			}
		}
	}
}

// TestDedupKeepsBetterRepresentative checks the merge direction: two
// same-key labels must leave the smaller-max one in the frontier. With a
// single wide layer and huge ε everything shares one key, so Solve must
// still find the layer's best vertex.
func TestDedupKeepsBetterRepresentative(t *testing.T) {
	g := &Graph{
		Baseline: []float64{0, 0},
		Layers: [][]Vertex{{
			{Weight: []float64{9, 9}, Tag: 0},
			{Weight: []float64{1, 1}, Tag: 1},
			{Weight: []float64{9, 1}, Tag: 2},
		}},
	}
	sol, err := Solve(context.Background(), g, Options{Epsilon: 5})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Picks[0] != 1 || sol.Max != 1 {
		t.Fatalf("sol = %+v, want pick 1 max 1", sol)
	}
}

// solveFastReference is the pre-optimization O(|S|·|L|²·W) algorithm:
// every round rescans all remaining layers and picks the vertex with the
// least noise-worsening M, ties broken by lower layer index then lower
// vertex index (strict < on both scans). The lazy-heap SolveFast must
// reproduce its picks exactly, ties included.
func solveFastReference(g *Graph) Solution {
	r := g.Dim()
	sum := make([]float64, r)
	copy(sum, g.Baseline)
	picks := make([]int, len(g.Layers))
	done := make([]bool, len(g.Layers))
	for round := 0; round < len(g.Layers); round++ {
		bestLi, bestVi, bestM := -1, -1, math.Inf(1)
		for li := range g.Layers {
			if done[li] {
				continue
			}
			for vi, v := range g.Layers[li] {
				m := math.Inf(-1)
				for s := 0; s < r; s++ {
					if c := sum[s] + v.Weight[s]; c > m {
						m = c
					}
				}
				if m < bestM {
					bestLi, bestVi, bestM = li, vi, m
				}
			}
		}
		done[bestLi] = true
		picks[bestLi] = bestVi
		for s, w := range g.Layers[bestLi][bestVi].Weight {
			sum[s] += w
		}
	}
	return g.solutionFor(picks)
}

// TestSolveFastMatchesReference differentially verifies the lazy-heap
// rewrite against the naive rescan, on both continuous random graphs and
// integer-grid graphs engineered to produce M ties across layers.
func TestSolveFastMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 80; trial++ {
		var g *Graph
		if trial%2 == 0 {
			g = randGraph(rng, 2+rng.Intn(8), 2+rng.Intn(5), 1+rng.Intn(6), 100)
		} else {
			g = dupGraph(rng, 2+rng.Intn(8), 2+rng.Intn(5), 1+rng.Intn(4))
		}
		want := solveFastReference(g)
		got, err := SolveFast(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		if got.Max != want.Max {
			t.Fatalf("trial %d: fast %g vs reference %g", trial, got.Max, want.Max)
		}
		for li := range want.Picks {
			if got.Picks[li] != want.Picks[li] {
				t.Fatalf("trial %d: picks diverge at layer %d: %v vs %v",
					trial, li, got.Picks, want.Picks)
			}
		}
	}
}

// TestFloatArenaStableSlices: slices handed out before a chunk fills must
// stay valid and disjoint as more allocations arrive.
func TestFloatArenaStableSlices(t *testing.T) {
	a := newFloatArena(4)
	var slices [][]float64
	for i := 0; i < 10_000; i++ {
		s := a.alloc(4)
		for k := range s {
			s[k] = float64(i)
		}
		slices = append(slices, s)
	}
	for i, s := range slices {
		for k := range s {
			if s[k] != float64(i) {
				t.Fatalf("slice %d clobbered: %v", i, s)
			}
		}
	}
	a.reset()
	s := a.alloc(4)
	if len(s) != 4 {
		t.Fatalf("post-reset alloc len %d", len(s))
	}
}

// TestFloatArenaUnalloc: LIFO unalloc reuses the same backing region.
func TestFloatArenaUnalloc(t *testing.T) {
	a := newFloatArena(8)
	s1 := a.alloc(8)
	a.unalloc(8)
	s2 := a.alloc(8)
	if &s1[0] != &s2[0] {
		t.Fatal("unalloc did not recycle the last allocation")
	}
}

// TestLabelArenaStablePointers: pointers returned before chunk growth must
// remain valid (prev chains depend on it).
func TestLabelArenaStablePointers(t *testing.T) {
	a := &labelArena{}
	var ptrs []*label
	for i := 0; i < 5*labelChunkSize; i++ {
		l := a.alloc()
		l.pick = int32(i)
		ptrs = append(ptrs, l)
	}
	for i, p := range ptrs {
		if p.pick != int32(i) {
			t.Fatalf("label %d moved or clobbered (pick=%d)", i, p.pick)
		}
	}
}

// TestHashQuantizedCollisionCheck: sameQuantized must discriminate vectors
// that differ in quantized coordinates even if a hash collided.
func TestHashQuantizedCollisionCheck(t *testing.T) {
	a := []float64{10, 20, 30}
	b := []float64{10, 20, 31}
	const delta = 1.0
	if !sameQuantized(a, a, delta) {
		t.Fatal("vector must equal itself")
	}
	if sameQuantized(a, b, delta) {
		t.Fatal("distinct quantized vectors reported equal")
	}
	if hashQuantized(a, delta) == hashQuantized(b, delta) {
		t.Fatal("trivially distinct keys should hash apart")
	}

	// sameQuantized(a, b) ⇒ equal hashes: dedup relies on it to find every
	// merge. And vectors whose keys differ in one coordinate never collide.
	rng := rand.New(rand.NewSource(17))
	same := 0
	for trial := 0; trial < 2000; trial++ {
		r := 1 + rng.Intn(160)
		delta := math.Ldexp(1, -rng.Intn(20))
		a := make([]float64, r)
		b := make([]float64, r)
		for s := range a {
			a[s] = rng.Float64() * 100
			b[s] = a[s]
			if rng.Intn(8) == 0 {
				// Anywhere in the same or the neighbouring cell.
				b[s] = (math.Floor(a[s]/delta) + rng.Float64()*1.2) * delta
			}
		}
		ha, hb := hashQuantized(a, delta), hashQuantized(b, delta)
		if sameQuantized(a, b, delta) {
			same++
			if ha != hb {
				t.Fatalf("trial %d: same quantized key, hashes %x vs %x", trial, ha, hb)
			}
			continue
		}
		diff := 0
		for s := range a {
			if uint64(a[s]/delta) != uint64(b[s]/delta) {
				diff++
			}
		}
		if diff == 1 && ha == hb {
			t.Fatalf("trial %d: keys differing in one coordinate collide at %x", trial, ha)
		}
	}
	if same < 100 || same > 1900 {
		t.Fatalf("%d of 2000 pairs shared a key; the property is not exercised", same)
	}
}

// paretoFilterReference is the unscreened O(n²) filter: the same sort,
// then a full dominance scan of every earlier kept label.
func paretoFilterReference(labels []*label, r int) []*label {
	sort.Slice(labels, func(i, j int) bool { return labels[i].max < labels[j].max })
	var out []*label
	for _, cand := range labels {
		dominated := false
		for _, kept := range out {
			all := true
			for s := 0; s < r; s++ {
				if kept.cost[s] > cand.cost[s]+1e-15 {
					all = false
					break
				}
			}
			if all {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, cand)
		}
	}
	return out
}

// TestParetoFilterMatchesReference differentially checks the
// witness-screened filter: on seeded label sets full of equal vectors,
// equal maxes and coordinates 1e-15 apart it must keep exactly the labels
// the unscreened filter keeps, in the same order.
func TestParetoFilterMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2048))
	witness := make([]int32, paretoFilterMax)
	for trial := 0; trial < 300; trial++ {
		r := 1 + rng.Intn(12)
		if trial%10 == 0 {
			r = 158
		}
		n := 1 + rng.Intn(400)
		var labels []*label
		for i := 0; i < n; i++ {
			cost := make([]float64, r)
			switch {
			case i > 0 && rng.Intn(5) == 0:
				// An exact copy of an earlier vector.
				copy(cost, labels[rng.Intn(i)].cost)
			case i > 0 && rng.Intn(4) == 0:
				// An earlier vector nudged by 1e-15 on a few coordinates,
				// so dominance hangs on the tolerance.
				copy(cost, labels[rng.Intn(i)].cost)
				for k := 0; k < 1+rng.Intn(3); k++ {
					cost[rng.Intn(r)] += float64(rng.Intn(3)-1) * 1e-15
				}
			default:
				// A small integer grid, so maxes tie often.
				for s := range cost {
					cost[s] = float64(rng.Intn(6))
				}
			}
			labels = append(labels, &label{cost: cost, max: maxOf(cost), pick: int32(i), argmax: int32(argmax(cost))})
		}
		want := paretoFilterReference(append([]*label(nil), labels...), r)
		got := paretoFilter(append([]*label(nil), labels...), r, witness)
		if len(got) != len(want) {
			t.Fatalf("trial %d (n=%d r=%d): kept %d labels, reference %d", trial, n, r, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (n=%d r=%d): kept label %d is pick %d, reference pick %d",
					trial, n, r, i, got[i].pick, want[i].pick)
			}
		}
	}
}

// TestSolveTinyEpsilonIsExact: an ε so small that ub/δ leaves the uint64
// range must not collapse every coordinate onto one saturated dedup key.
// The solve falls back to exact (no dedup) and matches brute force.
func TestSolveTinyEpsilonIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(300))
	for trial := 0; trial < 40; trial++ {
		g := randGraph(rng, 2+rng.Intn(4), 2+rng.Intn(3), 1+rng.Intn(5), 100)
		want, err := SolveExhaustive(g)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := Solve(context.Background(), g, Options{Epsilon: 0})
		if err != nil {
			t.Fatal(err)
		}
		for _, eps := range []float64{1e-300, 1e-30, math.SmallestNonzeroFloat64} {
			got, err := Solve(context.Background(), g, Options{Epsilon: eps})
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got.Max-want.Max) > 1e-9 {
				t.Fatalf("trial %d ε=%g: Solve %g vs exhaustive %g", trial, eps, got.Max, want.Max)
			}
			if !reflect.DeepEqual(got, exact) {
				t.Fatalf("trial %d ε=%g: %+v differs from the exact solve %+v", trial, eps, got, exact)
			}
		}
	}
}

// poisonedScratch returns solver working memory as a recycled scratch from
// an unrelated solve might leave it: every arena slot NaN, every witness
// out of range. A solve that read any of it before writing it would
// return NaN costs or panic.
func poisonedScratch(r int) *expandScratch {
	sc := new(expandScratch)
	for i := range sc.arenas {
		a := &sc.arenas[i]
		*a = *newFloatArena(r)
		for k := 0; k < 2; k++ {
			chunk := make([]float64, a.chunkSize)
			for j := range chunk {
				chunk[j] = math.NaN()
			}
			a.chunks = append(a.chunks, chunk)
		}
	}
	for i := range sc.witness {
		sc.witness[i] = math.MaxInt32
	}
	return sc
}

// TestParallelMOSPArenaReuse solves graphs of dimension 2, 158 and 4100
// (past 4096, so a recycled arena's chunks are too small and must be
// rebuilt) from concurrent goroutines that share the scratch pool, with
// poisoned scratch fed into the pool between solves. Every result must
// equal the solve of the same graph on a freshly started pool.
func TestParallelMOSPArenaReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(158))
	type instance struct {
		g   *Graph
		opt Options
	}
	instances := []instance{
		{randGraph(rng, 8, 4, 2, 100), Options{Epsilon: 0.01}},
		{randGraph(rng, 6, 4, 158, 100), Options{Epsilon: 0.01}},
		{dupGraph(rng, 6, 4, 158), Options{Epsilon: 0.3}},
		{randGraph(rng, 3, 3, 4100, 100), Options{Epsilon: 0.01}},
	}
	// A nil baseline leaves the start label's cost to the solver's own
	// zero fill.
	noBase := randGraph(rng, 5, 3, 158, 100)
	noBase.Baseline = nil
	instances = append(instances, instance{noBase, Options{Epsilon: 0.01}})
	want := make([]Solution, len(instances))
	for i, in := range instances {
		// Two collections empty a sync.Pool, so this solve gets new memory.
		runtime.GC()
		runtime.GC()
		sol, err := Solve(context.Background(), in.g, in.opt)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = sol
	}

	const workers, rounds = 4, 3
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < rounds*len(instances); k++ {
				i := (w + k) % len(instances)
				scratchPool.Put(poisonedScratch([]int{2, 158, 4100}[(w+k)%3]))
				got, err := Solve(context.Background(), instances[i].g, instances[i].opt)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("worker %d: instance %d solved to %v (max %g), fresh pool %v (max %g)",
						w, i, got.Picks, got.Max, want[i].Picks, want[i].Max)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// expandSortAllReference is the label cap without the bounded top-k:
// every label that survives the incumbent bound is built, deduplicated
// and kept; a small layer is Pareto-filtered, and a layer over the cap is
// sorted by (max, gen) and cut to MaxLabels.
func expandSortAllReference(g *Graph, opt Options, ub float64) []*label {
	r := g.Dim()
	delta := 0.0
	if opt.Epsilon > 0 && ub > 0 {
		delta = opt.Epsilon * ub / float64(len(g.Layers))
	}
	base := make([]float64, r)
	copy(base, g.Baseline)
	frontier := []*label{{cost: base, max: maxOf(base), layer: -1, pick: -1, argmax: int32(argmax(base))}}
	witness := make([]int32, paretoFilterMax)
	for li, layer := range g.Layers {
		var next []*label
		seen := map[uint64]int{}
		var gen int32
		for _, lb := range frontier {
			for vi, v := range layer {
				cost := make([]float64, r)
				pruned := false
				for s := range cost {
					cost[s] = lb.cost[s] + v.Weight[s]
					pruned = pruned || cost[s] > ub+1e-12
				}
				if pruned {
					continue
				}
				nl := &label{cost: cost, max: maxOf(cost), layer: int32(li), pick: int32(vi),
					gen: gen, argmax: int32(argmax(cost)), prev: lb}
				gen++
				if delta > 0 {
					h := hashQuantized(cost, delta)
					if idx, ok := seen[h]; ok {
						if sameQuantized(next[idx].cost, cost, delta) {
							if nl.max < next[idx].max {
								next[idx] = nl
							}
							continue
						}
					} else {
						seen[h] = len(next)
					}
				}
				next = append(next, nl)
			}
		}
		if len(next) <= paretoFilterMax {
			next = paretoFilter(next, r, witness)
		}
		if len(next) > opt.MaxLabels {
			sort.Slice(next, func(i, j int) bool {
				a, b := next[i], next[j]
				return a.max < b.max || (a.max == b.max && a.gen < b.gen)
			})
			next = next[:opt.MaxLabels]
		}
		if len(next) == 0 {
			return nil
		}
		frontier = next
	}
	return frontier
}

// pathOf returns a label's picks, first layer first.
func pathOf(lb *label) []int32 {
	var p []int32
	for ; lb != nil && lb.layer >= 0; lb = lb.prev {
		p = append([]int32{lb.pick}, p...)
	}
	return p
}

// solveFromFrontier finishes a solve the way Solve does: the first
// smallest-max frontier label, unless the greedy incumbent is as good.
func solveFromFrontier(g *Graph, frontier []*label, greedy Solution) Solution {
	if len(frontier) == 0 {
		return greedy
	}
	best := frontier[0]
	for _, lb := range frontier[1:] {
		if lb.max < best.max {
			best = lb
		}
	}
	if best.max >= greedy.Max {
		return greedy
	}
	picks := make([]int, len(g.Layers))
	for i, p := range pathOf(best) {
		picks[i] = int(p)
	}
	return g.solutionFor(picks)
}

// gridGraph draws weights from a five-value integer grid: fine enough
// for layers to outgrow the cap (dupGraph's three values mostly merge or
// dominate), coarse enough that label maxes tie often, also across the
// cap's cut.
func gridGraph(rng *rand.Rand, layers, width, dim int) *Graph {
	g := &Graph{Baseline: make([]float64, dim)}
	for s := range g.Baseline {
		g.Baseline[s] = float64(rng.Intn(3))
	}
	for i := 0; i < layers; i++ {
		l := make([]Vertex, width)
		for j := range l {
			w := make([]float64, dim)
			for s := range w {
				w[s] = float64(rng.Intn(5))
			}
			l[j] = Vertex{Weight: w, Tag: j}
		}
		g.Layers = append(g.Layers, l)
	}
	return g
}

// nearCapLayer is a one-layer graph of distinct vertices on the grid
// {½, 1½, …, 7½}⁴ in random order, so maxes tie often, plus dups
// later vertices that repeat an earlier one: exactly (an ε-dedup merge
// that keeps the occupant) or lowered by ¼ (a merge that replaces it,
// when the quantum is 1).
func nearCapLayer(rng *rand.Rand, distinct, dups int) *Graph {
	var layer []Vertex
	for _, p := range rng.Perm(8 * 8 * 8 * 8)[:distinct] {
		w := make([]float64, 4)
		for s := range w {
			w[s] = float64(p%8) + 0.5
			p /= 8
		}
		layer = append(layer, Vertex{Weight: w})
	}
	for d := 0; d < dups; d++ {
		w := append([]float64(nil), layer[rng.Intn(len(layer))].Weight...)
		if rng.Intn(2) == 0 {
			for s := range w {
				w[s] -= 0.25
			}
		}
		at := 1 + rng.Intn(len(layer))
		layer = append(layer[:at], append([]Vertex{{Weight: w}}, layer[at:]...)...)
	}
	for v := range layer {
		layer[v].Tag = v
	}
	return &Graph{Layers: [][]Vertex{layer}}
}

// checkCapFrontier compares expandLayers' frontier with the sort-all
// reference — same costs, same paths, same order — and returns the
// expansion's counters.
func checkCapFrontier(t *testing.T, name string, g *Graph, opt Options, ub float64) *solveStats {
	t.Helper()
	want := expandSortAllReference(g, opt, ub)
	st := &solveStats{}
	got, release, err := expandLayers(context.Background(), g, opt, ub, false, st)
	defer release()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: frontier %d labels, reference %d", name, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i].cost, want[i].cost) || !reflect.DeepEqual(pathOf(got[i]), pathOf(want[i])) {
			t.Fatalf("%s: frontier label %d is %v, reference %v", name, i, pathOf(got[i]), pathOf(want[i]))
		}
	}
	return st
}

// TestCapTopKMatchesSortAll: dropping certain cap cuts early must leave
// exactly the frontier (costs, picks and order) and the Solve result of
// building every label and cutting the sorted layer. Multi-layer graphs
// run under the greedy incumbent, as Solve does; one-layer graphs put
// the layer size within a few labels of the cap, where a bound that is
// off by one slot keeps a layer the reference cuts.
func TestCapTopKMatchesSortAll(t *testing.T) {
	rng := rand.New(rand.NewSource(4000))
	var capped, abandoned int64
	caps := []int{paretoFilterMax, paretoFilterMax + 1, 4000}
	for trial := 0; trial < 12; trial++ {
		g := gridGraph(rng, 5+rng.Intn(3), 8+rng.Intn(8), 3+rng.Intn(4))
		greedy, err := SolveGreedy(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range caps {
			for _, eps := range []float64{0, 0.01} {
				name := fmt.Sprintf("trial %d K=%d ε=%g", trial, k, eps)
				opt := Options{Epsilon: eps, MaxLabels: k}
				st := checkCapFrontier(t, name, g, opt, greedy.Max)
				capped += st.capped
				abandoned += st.abandoned
				want := solveFromFrontier(g, expandSortAllReference(g, opt, greedy.Max), greedy)
				sol, err := Solve(context.Background(), g, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(sol, want) {
					t.Fatalf("%s: Solve %v (max %g), reference %v (max %g)", name, sol.Picks, sol.Max, want.Picks, want.Max)
				}
			}
		}
	}
	for trial := 0; trial < 40; trial++ {
		for _, k := range caps {
			g := nearCapLayer(rng, k-1+rng.Intn(4), rng.Intn(5))
			for _, eps := range []float64{0, 0.01} {
				// ub = 100 makes the ε = 0.01 quantum exactly 1.
				st := checkCapFrontier(t, fmt.Sprintf("near-cap trial %d K=%d ε=%g", trial, k, eps), g,
					Options{Epsilon: eps, MaxLabels: k}, 100)
				capped += st.capped
				abandoned += st.abandoned
			}
		}
	}
	if capped == 0 || abandoned == 0 {
		t.Fatalf("capped %d layers, abandoned %d labels: the top-k path is not exercised", capped, abandoned)
	}
}

// TestCapTieBreakIsGenerationOrder: when more than MaxLabels labels share
// the max at the cut, the cap keeps the ones built first.
func TestCapTieBreakIsGenerationOrder(t *testing.T) {
	const k, n = paretoFilterMax, 3000
	for _, tc := range []struct {
		name      string
		max       func(v int) float64
		abandoned int64 // exact count, or -1 for any positive count
	}{
		// Every candidate after the first k+1 reaches the all-tied
		// threshold and is abandoned without being built.
		{"all tied", func(int) float64 { return 2 }, n - (k + 1)},
		{"tie straddles the cut", func(v int) float64 { return float64(1 + min(v%4, 1)) }, -1},
	} {
		layer := make([]Vertex, n)
		for v := range layer {
			m := tc.max(v)
			layer[v] = Vertex{Weight: []float64{m * float64(v%7) / 7, m}, Tag: v}
		}
		g := &Graph{Layers: [][]Vertex{layer}}
		// The (max, vertex) order is the (max, gen) order of a one-layer graph.
		want := make([]int32, n)
		for v := range want {
			want[v] = int32(v)
		}
		sort.SliceStable(want, func(i, j int) bool { return tc.max(int(want[i])) < tc.max(int(want[j])) })
		want = want[:k]

		st := &solveStats{}
		frontier, release, err := expandLayers(context.Background(), g, Options{MaxLabels: k}, 2, false, st)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]int32, len(frontier))
		for i, lb := range frontier {
			got[i] = lb.pick
		}
		release()
		if len(got) != k {
			t.Fatalf("%s: kept %d labels, want %d", tc.name, len(got), k)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: kept label %d is vertex %d, want %d (the first %d by (max, gen))", tc.name, i, got[i], want[i], k)
			}
		}
		if st.capped != 1 || st.abandoned == 0 || st.expanded+st.abandoned != n ||
			(tc.abandoned >= 0 && st.abandoned != tc.abandoned) {
			t.Fatalf("%s: capped %d, expanded %d, abandoned %d of %d", tc.name, st.capped, st.expanded, st.abandoned, n)
		}
	}
}
