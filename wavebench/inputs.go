package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"

	"wavemin"
)

// class is a request class of the seeded schedule.
type class int

const (
	classCold  class = iota // noCache paper-default solve
	classHit                // resubmission answered from the result cache
	classEco                // noCache 1-leaf delta with baseJobId
	classYield              // noCache statistical-yield request
	numClasses
)

func (c class) String() string {
	return [...]string{"cold", "hit", "eco", "yield"}[c]
}

// workload is one closed-loop benchmark scenario.
type workload struct {
	name    string
	circuit string
	clients int
	// block is the class multiset of one schedule block. The schedule is
	// a run of blocks, each a seeded permutation of block, so the class
	// mix of any prefix stays within one block of the nominal mix and
	// throughput does not swing with a lucky draw.
	block []class
	eco   bool // server runs with Options.Eco
	fleet bool // durable coordinator + in-process dispatch workers
	// editCold makes the cold tree a seeded 1-leaf edit of the circuit
	// (instead of the circuit itself), so each seed solves its own input.
	editCold bool
	deltas   int // distinct ECO delta trees
	yields   int // distinct yield requests (seeded Monte Carlo seeds)
}

var workloads = []workload{
	{
		name:     "ispd-cold",
		circuit:  "ispd09f34",
		clients:  1,
		block:    []class{classCold},
		editCold: true,
	},
	{
		name:    "eco-mix",
		circuit: "s35932",
		clients: 2,
		block:   []class{classCold, classEco, classEco, classHit, classHit, classHit, classHit, classHit},
		eco:     true,
		deltas:  4,
	},
	{
		name:    "fleet-yield",
		circuit: "s13207",
		clients: 2,
		block:   []class{classCold, classCold, classYield},
		fleet:   true,
		yields:  2,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Yield request knobs: small enough that one request is about half a
// second on s13207, large enough to fan out several chunk sub-leases.
const (
	yieldSamples    = 256
	yieldCandidates = 2
)

// scheduleLen bounds the generated schedule; clients wrap around if a
// run ever consumes all of it.
const scheduleLen = 4096

// deriveSeed mixes the split, workload and seed into the generator seed,
// so the held-out split draws from an input space disjoint from the one
// the benchmark was tuned on, for every seed.
func deriveSeed(split, workload string, seed int64) int64 {
	h := sha256.Sum256([]byte(fmt.Sprintf("wavebench\x00%s\x00%s\x00%d", split, workload, seed)))
	return int64(binary.LittleEndian.Uint64(h[:8]) >> 1)
}

// request is one schedule entry: a class and which of that class's
// bodies it sends.
type request struct {
	class   class
	variant int
}

// inputs is everything a workload's clients send, generated from the
// seed alone.
type inputs struct {
	cold   []byte   // tree of the cold (and hit) requests
	deltas [][]byte // ECO delta trees
	// yieldSeeds are the Monte Carlo seeds of the yield requests.
	yieldSeeds []int64
	schedule   []request
}

// makeInputs generates a workload's trees and request schedule. base is
// the circuit's canonical tree bytes.
func makeInputs(w workload, base []byte, split string, seed int64) (*inputs, error) {
	rng := rand.New(rand.NewSource(deriveSeed(split, w.name, seed)))
	in := &inputs{cold: base}
	if w.editCold {
		t, err := editLeaf(base, rng)
		if err != nil {
			return nil, err
		}
		in.cold = t
	}
	for i := 0; i < w.deltas; i++ {
		t, err := editLeaf(base, rng)
		if err != nil {
			return nil, err
		}
		in.deltas = append(in.deltas, t)
	}
	for i := 0; i < w.yields; i++ {
		in.yieldSeeds = append(in.yieldSeeds, 1+rng.Int63n(1<<30))
	}
	in.schedule = makeSchedule(w, rng)
	return in, nil
}

// makeSchedule lays out scheduleLen requests as seeded permutations of
// the workload's block; ECO and yield entries pick their variant
// uniformly.
func makeSchedule(w workload, rng *rand.Rand) []request {
	out := make([]request, 0, scheduleLen)
	for len(out) < scheduleLen {
		for _, i := range rng.Perm(len(w.block)) {
			r := request{class: w.block[i]}
			switch r.class {
			case classEco:
				r.variant = rng.Intn(w.deltas)
			case classYield:
				r.variant = rng.Intn(w.yields)
			}
			out = append(out, r)
		}
	}
	return out[:scheduleLen]
}

// editLeaf returns a copy of the tree with one seeded leaf's sink load
// raised by a seeded 0.1–0.5 fF: the 1-leaf engineering change order.
func editLeaf(tree []byte, rng *rand.Rand) ([]byte, error) {
	d, err := wavemin.LoadTree(bytes.NewReader(tree))
	if err != nil {
		return nil, err
	}
	leaves := d.Tree.Leaves()
	leaf := leaves[rng.Intn(len(leaves))]
	delta := 0.1 + 0.1*float64(rng.Intn(5))
	d.Tree.SetSinkCap(leaf, d.Tree.Node(leaf).SinkCap+delta)
	var buf bytes.Buffer
	if err := d.SaveTree(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// digest fingerprints the inputs: two runs that print the same digest
// sent identical request streams.
func (in *inputs) digest() string {
	h := sha256.New()
	sum := func(b []byte) string {
		s := sha256.Sum256(b)
		return hex.EncodeToString(s[:8])
	}
	fmt.Fprintf(h, "cold %s\n", sum(in.cold))
	for i, t := range in.deltas {
		fmt.Fprintf(h, "delta %d %s\n", i, sum(t))
	}
	for i, s := range in.yieldSeeds {
		fmt.Fprintf(h, "yield %d %d\n", i, s)
	}
	for _, r := range in.schedule {
		fmt.Fprintf(h, "%d:%d\n", r.class, r.variant)
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// wireBody is the subset of the POST /v1/optimize body the benchmark
// sends.
type wireBody struct {
	Tree      json.RawMessage `json:"tree"`
	NoCache   bool            `json:"noCache,omitempty"`
	BaseJobID string          `json:"baseJobId,omitempty"`
	Trace     bool            `json:"trace,omitempty"`
	Yield     *wireYield      `json:"yield,omitempty"`
}

type wireYield struct {
	Samples    int   `json:"samples"`
	Candidates int   `json:"candidates"`
	Seed       int64 `json:"seed"`
}

// bodies holds the encoded request bodies of one service instance, per
// class and variant, untraced and traced.
type bodies struct {
	plain, traced [numClasses][][]byte
}

func (b *bodies) get(r request, traced bool) []byte {
	if traced {
		return b.traced[r.class][r.variant]
	}
	return b.plain[r.class][r.variant]
}

// makeBodies encodes every request body; baseJobID names the primed job
// ECO deltas chain off.
func makeBodies(in *inputs, baseJobID string) (*bodies, error) {
	var out bodies
	add := func(c class, wb wireBody) error {
		for _, traced := range []bool{false, true} {
			wb.Trace = traced
			blob, err := json.Marshal(wb)
			if err != nil {
				return err
			}
			if traced {
				out.traced[c] = append(out.traced[c], blob)
			} else {
				out.plain[c] = append(out.plain[c], blob)
			}
		}
		return nil
	}
	if err := add(classCold, wireBody{Tree: in.cold, NoCache: true}); err != nil {
		return nil, err
	}
	if err := add(classHit, wireBody{Tree: in.cold}); err != nil {
		return nil, err
	}
	for _, t := range in.deltas {
		if err := add(classEco, wireBody{Tree: t, NoCache: true, BaseJobID: baseJobID}); err != nil {
			return nil, err
		}
	}
	for _, s := range in.yieldSeeds {
		y := &wireYield{Samples: yieldSamples, Candidates: yieldCandidates, Seed: s}
		if err := add(classYield, wireBody{Tree: in.cold, NoCache: true, Yield: y}); err != nil {
			return nil, err
		}
	}
	return &out, nil
}
